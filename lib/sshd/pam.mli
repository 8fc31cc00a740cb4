(** A PAM-like authentication library, faithfully including the historical
    bug of §5.2 / [Kuhn 2003]: during password verification it copies the
    cleartext password into malloc'd scratch storage and frees it {e
    without scrubbing}.

    Where that scratch lives decides who can read the remnant:
    - called from a monolithic or privilege-separated (fork-based) server,
      the scratch sits in the parent's heap, and every subsequently forked
      slave inherits it;
    - called from inside a Wedge callgate, the scratch is in the callgate
      sthread's private untagged heap, which no other compartment can even
      name. *)

val authenticate :
  Wedge_core.Wedge.ctx -> shadow_line:string -> user:string -> password:string -> bool
(** Verify [password] against a shadow entry ([user:uid:salt:sha256hex]).
    Leaves the password in freed heap scratch (the bug). *)


