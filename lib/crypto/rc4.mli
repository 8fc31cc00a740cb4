(** RC4 stream cipher, standing in for the symmetric cipher of the
    SSL record layer.  State is serialisable so partitioned servers can
    keep cipher state in tagged memory shared between the SSL_read and
    SSL_write callgates and nowhere else (§5.1.2, Figure 5).

    The permutation is kept as 256 bytes, the same bytes as the image:
    {!copy}, {!serialize} and {!deserialize} are blits, and {!crypt_into}
    allocates nothing. *)

type t

val create : key:bytes -> t
val crypt : t -> bytes -> bytes
(** Encrypts or decrypts (XOR keystream) into a fresh buffer; advances
    the state. *)

val crypt_into : t -> bytes -> int -> bytes -> int -> int -> unit
(** [crypt_into t src src_off dst dst_off len] writes the [len] bytes of
    [src] at [src_off], encrypted, into [dst] at [dst_off] (in place when
    [src == dst] and the offsets are equal); advances the state like
    {!crypt}.  @raise Invalid_argument if either range is out of
    bounds. *)

val copy : t -> t

val state_size : int
(** Bytes of the image {!serialize} writes (258: the permutation, then
    [i] and [j]). *)

val serialize : t -> bytes -> int -> unit
(** [serialize t b off] writes the image of [t] into [b] at [off].
    @raise Invalid_argument if it does not fit. *)

val deserialize : bytes -> int -> t
(** The state whose image is at [off] in [b].
    @raise Invalid_argument if it does not fit. *)
