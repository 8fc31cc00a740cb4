(** The mini-SSL record layer: per-direction RC4 encryption and
    HMAC-SHA256 integrity with sequence numbers.

    The complete cipher/MAC state serialises to a flat byte image so the
    partitioned server can keep it in tagged memory readable only by the
    SSL_read / SSL_write callgates (Figure 5): callgates load the state,
    process one record, and store the state back.

    What a record costs the host: {!seal} allocates the record it returns,
    the 8-byte sequence number and one HMAC (a SHA-256 context, a pad
    block, two digests); {!open_} allocates the plaintext it returns, the
    32-byte tag, the sequence number, one HMAC and one cipher-state copy.
    Neither concatenates the sequence number onto the data, and neither
    encrypts or decrypts a byte twice.  {!to_bytes} and {!of_bytes} blit
    the image at fixed offsets. *)

type keys

val derive : master:bytes -> client_random:bytes -> server_random:bytes -> side:[ `Client | `Server ] -> keys
(** Per-connection keys from the session master secret and both randoms;
    the two sides derive mirrored transmit/receive states.  The four key
    expansions share one SHA-256 context. *)

val seal : keys -> bytes -> bytes
(** MAC (over sequence number and plaintext) then encrypt; advances the
    transmit sequence number. *)

val open_ : keys -> bytes -> bytes option
(** Decrypt and verify; [None] on MAC failure (the record must be dropped —
    this is what stops injected data in §5.1.2).  The record is decrypted
    once, on a copy of the receive cipher state; the copy replaces the
    state, and the receive sequence number advances, only on success. *)

val state_size : int
(** Bytes of the state image (596): the transmit and receive MAC keys
    (32 each), the transmit and receive {!Wedge_crypto.Rc4} images (258
    each), then the transmit and receive sequence numbers (8 each,
    big-endian).  [Conn_state] and [Httpd_mitm] keep this image in tagged
    memory, so its layout is fixed. *)

val to_bytes : keys -> bytes
val of_bytes : bytes -> keys
(** @raise Invalid_argument unless the image is {!state_size} bytes. *)
