(** Supervision for compartments.

    The engine contains a compartment crash (protection fault, SELinux
    denial, injected ENOMEM, channel fault, or any exception that leaves
    compartment code) by terminating only that compartment; the
    supervisor reports it.  {!supervise} runs one attempt: a faulted one
    comes back as [Error], and the caller degrades the one affected
    connection (HTTP 500, POP3 [-ERR], SSH disconnect) while the listener
    lives on.  Nothing is retried: a fresh compartment would meet a
    client in the middle of the session its predecessor left behind.

    Kernel stat bumped: [supervisor.gave_up], with a matching trace
    instant, once per faulted attempt. *)

val supervise : Engine.ctx -> (unit -> Engine.handle) -> (int, string) result
(** [supervise ctx run] runs the one compartment [run] creates: [Ok v]
    when it terminated by exiting [v] (any code, including nonzero
    protocol failures), [Error reason] when it faulted.  A contained
    fault raised by [run] itself (e.g. an injected ["pool.stamp"] fault
    while creating the compartment) is a faulted attempt with reason
    prefix ["create: "] — it never propagates to the caller. *)
