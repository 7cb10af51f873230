(** Abstract domains for the static plan analyzer: value intervals,
    nullability, and provable cardinality envelopes.

    All operations compute {e provable} facts — the analyzer's claims are
    sound bounds on runtime behaviour, unlike the estimates of
    [Stats.Derive] which they are checked against. *)

(** An interval over the reals with open/closed endpoints.  Constrains
    only the {e non-NULL} values of a column (NULL is tracked separately
    via {!nullability}), so outer-join NULL padding never invalidates
    one.  Infinite endpoints are always open. *)
type interval = {
  lo : float;
  lo_open : bool;
  hi : float;
  hi_open : bool;
}

val top : interval
val is_top : interval -> bool
val point : float -> interval
val at_least : ?strict:bool -> float -> interval
val at_most : ?strict:bool -> float -> interval
val closed : float -> float -> interval
val is_empty : interval -> bool

(** Intersection; [None] when provably empty. *)
val meet : interval -> interval -> interval option

(** Convex hull. *)
val join : interval -> interval -> interval

val contains : interval -> float -> bool

(** Emptiness when restricted to integers — used only for contradiction
    detection on int-typed columns, never to tighten emitted
    predicates. *)
val is_empty_int : interval -> bool

val add : interval -> interval -> interval
val sub : interval -> interval -> interval
val neg : interval -> interval
val pp_interval : Format.formatter -> interval -> unit

(** The nullability lattice: [Non_null] proves the column never holds
    NULL. *)
type nullability = Non_null | Maybe_null

val null_join : nullability -> nullability -> nullability
val pp_nullability : Format.formatter -> nullability -> unit

(** Abstract value of one column. *)
type aval = {
  itv : interval;
  null : nullability;
  ty : Relalg.Value.ty option;
}

val aval_top : aval
val aval_join : aval -> aval -> aval

(** Provable bounds on an operator's exact output row count:
    [e_lo <= |output| <= e_hi], with [e_hi = infinity] for unbounded. *)
type envelope = { e_lo : float; e_hi : float }

val env_top : envelope
val env_exact : float -> envelope
val env_empty : envelope

(** Provably zero rows. *)
val env_is_empty : envelope -> bool

val env_contains : envelope -> float -> bool
val pp_envelope : Format.formatter -> envelope -> unit
