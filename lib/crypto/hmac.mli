(** HMAC-SHA256 (RFC 2104).  The mini-SSL record layer's integrity
    protection: injected ciphertext without the MAC key is dropped, which
    is what confines a man-in-the-middle to the outside of an established
    session (§5.1.2).

    A tag costs the host one SHA-256 context, one 64-byte pad block and
    the two 32-byte digests, whatever the length of the data (and a
    digest of a key longer than the block). *)

val mac : key:bytes -> ?prefix:bytes -> bytes -> bytes
(** 32-byte tag of [prefix ++ data] ([prefix] is empty by default).  The
    two are hashed one after the other, never concatenated: the record
    layer's sequence number and the handshake's Finished label are
    prefixes. *)

val verify : key:bytes -> ?prefix:bytes -> bytes -> tag:bytes -> bool
(** Whether [tag] is {!mac} of [prefix ++ data]; constant-time
    comparison. *)
