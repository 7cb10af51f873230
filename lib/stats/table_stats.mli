(** Statistical summaries of base data (Section 5.1.1): row/page counts and
    per-column distinct counts, null fraction, outlier-robust bounds
    (second-lowest / second-highest) and optional histograms.

    A column's statistics are a [col_stats Lazy.t].  Base tables
    ({!analyze}, {!analyze_catalog}, materialized views) are analyzed
    eagerly: their columns are already-forced values, which read without
    allocating.  A view temporary ({!analyze_deferred}) computes a
    column the first time a reader asks for it ({!col}, the estimator's
    [Derive.find_col], {!pp}), with the same {!analyze_column}, so every
    estimate is the same as under eager ANALYZE; the outer block's
    estimates read only the columns it references, while the plan lint
    forces every column.  Force deferred columns on one domain: the
    planner's. *)

type col_stats = {
  n_distinct : float;
  null_frac : float;
  lo : float option;  (** second-lowest value (numeric columns) *)
  hi : float option;  (** second-highest value *)
  min_v : float option;
      (** exact minimum over non-null values (numeric columns): unlike the
          outlier-robust [lo]/[hi] pair this is a {e sound} bound, which
          the static plan analyzer relies on *)
  max_v : float option;  (** exact maximum — sound bound *)
  hist : Histogram.t option;
  sketch : Sketch.t option;
      (** Fast-AGMS sketch of the column ({!Sketch}).  [None] in the
          registry ANALYZE builds; only the pipeline's per-block snapshot
          under the [`Sketch] estimator carries one, and the estimator
          prefers it for equi-join selectivity when both columns do *)
}

type t = {
  table : string;
  rows : float;
  pages : int;
  cols : (string * col_stats Lazy.t) list;
}

(** The statistics registry — the stats-side companion of the catalog,
    keyed by table name. *)
type db = (string, t) Hashtbl.t

val create_db : unit -> db

val analyze_column :
  ?hist_buckets:int -> ?hist_kind:Sample.kind -> Storage.Table.t -> string ->
  col_stats

(** ANALYZE one table, every column now. *)
val analyze : ?hist_buckets:int -> ?hist_kind:Sample.kind -> Storage.Table.t -> t

(** ANALYZE one table, each column on its first read.  Row and page
    counts are taken now.  The columns read the table itself, not the
    catalog, so they can be forced after the table has left the catalog,
    and an unread column keeps the table's rows alive; the table must
    not change once this is called. *)
val analyze_deferred : Storage.Table.t -> t

(** ANALYZE every table of a catalog into a fresh registry. *)
val analyze_catalog :
  ?hist_buckets:int -> ?hist_kind:Sample.kind -> Storage.Catalog.t -> db

val find : db -> string -> t option

(** The registry's entry for a table; a table the registry does not know
    (a fabricated temporary) gets its physical row and page counts and no
    column statistics. *)
val for_table : db -> Storage.Table.t -> t

(** [f] over a column's statistics: now if they are computed, else when
    the result is first forced, so an unread column stays unread. *)
val map_deferred :
  (col_stats -> col_stats) -> col_stats Lazy.t -> col_stats Lazy.t

(** A column's statistics, computed now if they were deferred. *)
val col : t -> string -> col_stats option

val pp : Format.formatter -> t -> unit
