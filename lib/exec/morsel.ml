(* Morsel-driven parallel execution: the lifetime of the domain pool
   around one run of the columnar engine ([Batch.run_pooled]), which
   owns every operator. *)

let default_morsel_rows = 4096

let run ?ctx ?obs ?sketch ?pool ?(morsel = default_morsel_rows) ?schedule
    ?chunk_rows ~dop (cat : Storage.Catalog.t) (plan : Plan.t) :
  Executor.result =
  let go pool =
    Batch.run_pooled ?ctx ?obs ?sketch ?chunk_rows ?schedule ?pool ~dop
      ~morsel cat plan
  in
  match pool with
  | None when dop > 1 -> Domain_pool.with_pool dop (fun pool -> go (Some pool))
  | pool -> go pool
