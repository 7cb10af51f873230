(** Two-dimensional histograms (Section 5.1.1, [45,51]): the joint
    distribution of a column pair, capturing the correlations the
    single-column independence assumption misses (experiment E10).
    Equi-depth cut points per dimension; uniform spread within cells. *)

type t = {
  x_bounds : float array;  (** kx+1 ascending cut points *)
  y_bounds : float array;
  counts : float array array;  (** kx x ky joint cell counts *)
  total : float;
}

(** Build over paired columns.  @raise Invalid_argument on length
    mismatch. *)
val build : ?buckets:int -> float array -> float array -> t

(** Selectivity of [xlo <= X <= xhi AND ylo <= Y <= yhi] (all bounds
    optional). *)
val est_range :
  t -> ?xlo:float -> ?xhi:float -> ?ylo:float -> ?yhi:float -> unit -> float
