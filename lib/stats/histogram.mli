(** Column histograms over numeric data (Section 5.1.1): equi-width,
    equi-depth (equi-height) and compressed (frequent values in singleton
    buckets) bucketizations, with the uniform-spread intra-bucket
    assumption the paper discusses. *)

type bucket = {
  lo : float;  (** inclusive *)
  hi : float;  (** inclusive *)
  count : float;  (** rows in [lo, hi] *)
  distinct : float;  (** distinct values inside *)
}

type t = {
  total : float;  (** rows covered (non-null) *)
  singletons : (float * float) array;  (** (value, frequency), sorted *)
  buckets : bucket array;  (** disjoint, sorted by [lo] *)
}

val total : t -> float
val empty : t

val build_equi_width : buckets:int -> float array -> t
val build_equi_depth : buckets:int -> float array -> t

(** [build_compressed ~buckets ~singletons data]: the [singletons] most
    frequent values get exact singleton buckets; the rest is equi-depth. *)
val build_compressed : buckets:int -> singletons:int -> float array -> t

(** Rows of bucket [b] within the value range, by linear interpolation. *)
val bucket_range_rows : bucket -> lo_v:float -> hi_v:float -> float

(** Selectivity of [column = v]. *)
val est_eq : t -> float -> float

(** Selectivity of [lo <= column <= hi] (either side optional). *)
val est_range : t -> ?lo:float -> ?hi:float -> unit -> float

(** Histogram "join" (Section 5.1.3): align bucket boundaries and estimate
    matching row pairs per interval as r1*r2/max(d1,d2) — the containment
    assumption.  Returns estimated result rows.  One sweep over the sorted
    merged bounds: linear in buckets plus bounds. *)
val join_rows : t -> t -> float

(** A memo of {!join_rows} keyed on the physical identity of the two
    histograms, meant to live for one query: histograms are immutable,
    and propagation through operators never rebuilds one, so each join
    edge is computed once. *)
type join_memo

val join_memo : unit -> join_memo

(** {!join_rows}, served from the memo when the same pair (same
    orientation) was joined before. *)
val join_rows_memo : join_memo -> t -> t -> float

(** [(hits, misses)]; misses = distinct pairs computed. *)
val join_memo_stats : join_memo -> int * int

(** Number of buckets including singletons. *)
val bucket_count : t -> int

val pp : Format.formatter -> t -> unit
