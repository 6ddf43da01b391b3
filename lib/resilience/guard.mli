(** Query-time resource guard: wall-clock deadline + physical-page-read
    budget.

    A guard is created per query and threaded down into the strategy
    run loops, which call {!tick} every cursor advance. Ticks are
    cheap: the actual deadline/budget check only runs every
    [check_every] ticks. On expiry the guard raises {!Budget_exceeded};
    the strategy catches it where its partial state (candidate heap,
    pending rows, merged prefix) is in scope, salvages a best-effort
    answer, and tags the run degraded — "never wrong, possibly partial,
    always tagged" (DESIGN.md §6).

    The page budget is measured as the delta of the process-wide
    ["pager.physical_reads"] counter since guard creation, so the guard
    observes storage I/O without depending on the storage layer. A
    memory-backed env performs no physical reads; page budgets only
    bind on-disk. *)

type t

type reason = Deadline | Page_budget

exception Budget_exceeded of { reason : reason; detail : string }
(** Raised by {!tick}/{!check} once the deadline or page budget is
    exhausted. Deliberately does not carry partial results: the
    strategy that catches it already holds them. *)

val create : ?deadline_ms:float -> ?page_budget:int -> ?check_every:int -> unit -> t
(** [create ()] with neither limit never expires. [deadline_ms] is
    relative to creation time; [page_budget] caps physical page reads
    performed after creation. [check_every] defaults to 16. *)

val unlimited : t
(** A shared guard with no limits; ticking it is a no-op. *)

val tick : t -> unit
(** Count one unit of work; every [check_every] ticks, {!check}. *)

val check : t -> unit
(** Check both limits now. @raise Budget_exceeded on expiry. *)

val expired : t -> reason option
(** Like {!check} but returns the verdict instead of raising. *)

val pages_used : t -> int
(** Physical page reads since the guard was created. *)

val remaining_ms : t -> float option
(** Milliseconds until the deadline, if one is set. *)

val reason_to_string : reason -> string
