(** The man-in-the-middle partitioning of Apache/OpenSSL (Figures 3–5).

    Two sequential sthreads per connection, started by the master:

    - {e SSL handshake}: reads/writes cleartext on the network and drives
      the handshake, but holds {e no} access to the session-key state.  It
      establishes the key purely through callgates whose only outputs are
      public values and booleans:
      {e new_session}/{e resume_session} (server random generated inside,
      §5.1.1), {e setup_session_key} (RSA private-key decryption),
      {e receive_finished} (verifies the client's Finished, prepares the
      server's into finished-state memory, returns success/failure only)
      and {e send_finished} (seals from finished state, takes no caller
      input).  An exploit here gets neither the session key nor an
      encryption/decryption oracle for it.

    - {e client handler}: started by the master only after the handshake
      sthread exits.  Holds no network descriptor at all; the {e SSL_read}
      callgate (network read permission) and {e SSL_write} callgate
      (network write permission) move data across the MAC'd channel, so
      injected ciphertext dies inside SSL_read and a compromised SSL_read
      still cannot leak plaintext to the wire. *)

val serve_connection :
  ?spawn:Wedge_core.Wedge.spawn ->
  ?guard:Wedge_net.Guard.conn ->
  Httpd_env.t ->
  Wedge_net.Chan.ep ->
  Wedge_net.Service.served
(** Serve one connection (one request) through
    {!Wedge_net.Service.run_worker}: the handshake, then — only after it
    exits 0 — the client handler.  [spawn] (default [Stamp] from the
    ["httpd_mitm.worker"] image) decides how both compartments and the
    seven callgates are spawned: [Boot] is Table 2's Wedge row, [Recycle]
    its Recycled row.

    A fault in either compartment or in the master's setup degrades only
    this connection: a plaintext 500 and the [httpd_mitm.degraded]
    counter.  Neither is retried: the TLS stream is consumed by a failed
    attempt.  [guard] makes the handshake read through the
    deadline-aware endpoint and marks the connection established after a
    clean handshake.

    A ClientKeyExchange or client Finished too large for the 4096-byte
    argument block fails the handshake, and a request too large for the
    20,000-byte data block makes SSL_read return 0: neither is written
    past its block. *)

val service : Httpd_env.t Wedge_net.Service.t
(** The Figures 3–5 skeleton: name ["httpd_mitm"], worker image
    ["httpd_mitm.worker"], plaintext 503 for rejected connections,
    {!serve_connection} per admitted one. *)
