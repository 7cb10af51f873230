(** Fast-AGMS (count) sketches for join-size estimation, built in one pass
    over join-key columns during execution and consulted by the estimator
    (PAPERS.md, "Online Sketch-based Query Optimization").

    With width [w] and depth [d], the join-size estimate satisfies
    [|est - J| <= sqrt(8/w) * sqrt(F2(a) * F2(b))] with probability at
    least [1 - exp(-d/8)], where F2 is the second frequency moment of
    each input column.  Hashing is deterministic given the seed. *)

type t

val default_width : int
val default_depth : int

(** Fresh empty sketch.  Two sketches are comparable iff created with the
    same [width], [depth] and [seed]. *)
val create : ?width:int -> ?depth:int -> ?seed:int -> unit -> t

(** Same width, depth and seed — required for {!join_estimate}. *)
val compatible : t -> t -> bool

(** Feed one (non-null) key value. *)
val update : t -> int -> unit

(** Number of values fed so far. *)
val items : t -> int

(** Estimated join size of the two sketched columns.
    @raise Invalid_argument on incompatible sketches. *)
val join_estimate : t -> t -> float

(** Estimated second frequency moment (self-join size) of the column. *)
val second_moment : t -> float

(** The (epsilon, delta) guarantee parameters: [epsilon = sqrt(8/width)],
    [delta = exp(-depth/8)]. *)
val epsilon : t -> float

val delta : t -> float

(** [epsilon * sqrt(F2 a * F2 b)] using the sketches' own F2 estimates. *)
val error_bound : t -> t -> float

(** {2 Registry}

    Sketches built during execution, keyed by (table, column), stamped
    with the table row count at build time so stale sketches are ignored
    after data or statistics change. *)

type entry = { sketch : t; rows_at_build : float }
type registry

val registry_create : unit -> registry
val registry_set : registry -> table:string -> column:string -> entry -> unit
val registry_find : registry -> table:string -> column:string -> entry option

(** The entry's sketch iff its build-time row count matches [rows] (the
    table's current row count per the statistics registry). *)
val entry_fresh : entry -> rows:float -> t option

val registry_iter :
  (table:string -> column:string -> entry -> unit) -> registry -> unit

val registry_clear : registry -> unit
