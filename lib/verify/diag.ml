(* Structured diagnostics for the plan linter. *)

type severity = Error | Warning

type t = {
  severity : severity;
  code : string;
  path : string list;
  message : string;
}

let error ?(path = []) ~code message = { severity = Error; code; path; message }

let warning ?(path = []) ~code message =
  { severity = Warning; code; path; message }

let of_typing errors =
  List.map
    (fun (e : Relalg.Typing.error) ->
       error ~code:e.Relalg.Typing.code e.message)
    errors

let typing schema e = of_typing (snd (Relalg.Typing.check schema e))

let predicate schema e = of_typing (Relalg.Typing.check_predicate schema e)

let duplicates ~code ~what names =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun a ->
       if Hashtbl.mem seen a then
         Some (error ~code (Fmt.str "duplicate %s %S" what a))
       else begin
         Hashtbl.replace seen a ();
         None
       end)
    names

let within label diags =
  List.map (fun d -> { d with path = label :: d.path }) diags

let errors = List.filter (fun d -> d.severity = Error)
let warnings = List.filter (fun d -> d.severity = Warning)
let has_errors diags = errors diags <> []
let mem ~code diags = List.exists (fun d -> d.code = code) diags

let pp ppf d =
  let sev = match d.severity with Error -> "error" | Warning -> "warning" in
  match d.path with
  | [] -> Fmt.pf ppf "%s [%s]: %s" sev d.code d.message
  | p ->
    Fmt.pf ppf "%s [%s] at %s: %s" sev d.code (String.concat "/" p) d.message

let pp_list ppf = function
  | [] -> Fmt.pf ppf "no diagnostics"
  | ds -> Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) ds

let to_string d = Fmt.str "%a" pp d
