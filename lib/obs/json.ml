(* Minimal JSON reader (RFC 8259 subset, no dependency).

   The trace writer hand-builds its JSON, so tests and the CI checker
   need an independent reader to certify the output is well-formed.
   Validation is parsing with the value thrown away; the emission paths
   never touch this allocation. *)

type pos = { s : string; mutable i : int }

exception Bad of string * int

let fail p msg = raise (Bad (msg, p.i))

let peek p = if p.i < String.length p.s then Some p.s.[p.i] else None

let advance p = p.i <- p.i + 1

let skip_ws p =
  while
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      true
    | _ -> false
  do
    ()
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> fail p (Printf.sprintf "expected '%c'" c)

let literal p lit =
  String.iter (fun c -> expect p c) lit

let hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let digits p =
  let n = ref 0 in
  while (match peek p with Some '0' .. '9' -> true | _ -> false) do
    advance p;
    incr n
  done;
  if !n = 0 then fail p "expected digit"

let number p =
  (match peek p with Some '-' -> advance p | _ -> ());
  (match peek p with
   | Some '0' -> advance p
   | Some '1' .. '9' -> digits p
   | _ -> fail p "expected number");
  (match peek p with
   | Some '.' ->
     advance p;
     digits p
   | _ -> ());
  match peek p with
  | Some ('e' | 'E') ->
    advance p;
    (match peek p with Some ('+' | '-') -> advance p | _ -> ());
    digits p
  | _ -> ()

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

(* Decode a string body (opening quote consumed by caller checks), with
   escapes resolved; \uXXXX below 0x80 decodes to the byte, other
   codepoints to UTF-8. *)
let parse_string p : string =
  expect p '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' ->
      advance p;
      (match peek p with
       | Some '"' -> advance p; Buffer.add_char b '"'; go ()
       | Some '\\' -> advance p; Buffer.add_char b '\\'; go ()
       | Some '/' -> advance p; Buffer.add_char b '/'; go ()
       | Some 'b' -> advance p; Buffer.add_char b '\b'; go ()
       | Some 'f' -> advance p; Buffer.add_char b '\012'; go ()
       | Some 'n' -> advance p; Buffer.add_char b '\n'; go ()
       | Some 'r' -> advance p; Buffer.add_char b '\r'; go ()
       | Some 't' -> advance p; Buffer.add_char b '\t'; go ()
       | Some 'u' ->
         advance p;
         let code = ref 0 in
         for _ = 1 to 4 do
           match peek p with
           | Some c when hex_digit c ->
             advance p;
             let d =
               match c with
               | '0' .. '9' -> Char.code c - Char.code '0'
               | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
               | _ -> Char.code c - Char.code 'A' + 10
             in
             code := (!code * 16) + d
           | _ -> fail p "bad \\u escape"
         done;
         let u = !code in
         if u < 0x80 then Buffer.add_char b (Char.chr u)
         else if u < 0x800 then begin
           Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
           Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
         end
         else begin
           Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
           Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
           Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
         end;
         go ()
       | _ -> fail p "bad escape")
    | Some c when Char.code c < 0x20 -> fail p "control char in string"
    | Some c ->
      advance p;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let rec parse_value p : value =
  skip_ws p;
  match peek p with
  | Some '"' -> Str (parse_string p)
  | Some '{' ->
    advance p;
    skip_ws p;
    (match peek p with
     | Some '}' ->
       advance p;
       Obj []
     | _ ->
       let rec members acc =
         skip_ws p;
         let k = parse_string p in
         skip_ws p;
         expect p ':';
         let v = parse_value p in
         skip_ws p;
         match peek p with
         | Some ',' ->
           advance p;
           members ((k, v) :: acc)
         | Some '}' ->
           advance p;
           List.rev ((k, v) :: acc)
         | _ -> fail p "expected ',' or '}'"
       in
       Obj (members []))
  | Some '[' ->
    advance p;
    skip_ws p;
    (match peek p with
     | Some ']' ->
       advance p;
       Arr []
     | _ ->
       let rec elements acc =
         let v = parse_value p in
         skip_ws p;
         match peek p with
         | Some ',' ->
           advance p;
           elements (v :: acc)
         | Some ']' ->
           advance p;
           List.rev (v :: acc)
         | _ -> fail p "expected ',' or ']'"
       in
       Arr (elements []))
  | Some 't' ->
    literal p "true";
    Bool true
  | Some 'f' ->
    literal p "false";
    Bool false
  | Some 'n' ->
    literal p "null";
    Null
  | Some ('-' | '0' .. '9') ->
    let start = p.i in
    number p;
    Num (float_of_string (String.sub p.s start (p.i - start)))
  | _ -> fail p "expected value"

let parse (s : string) : (value, string) result =
  let p = { s; i = 0 } in
  match
    let v = parse_value p in
    skip_ws p;
    if p.i <> String.length s then fail p "trailing garbage" else v
  with
  | v -> Ok v
  | exception Bad (msg, i) -> Error (Printf.sprintf "%s at offset %d" msg i)

let validate (s : string) : (unit, string) result = Result.map ignore (parse s)

(* Object-member lookup (first match; our emitters never repeat keys). *)
let member (k : string) (v : value) : value option =
  match v with Obj kvs -> List.assoc_opt k kvs | _ -> None

(* Line-delimited JSON: every non-empty line must be a standalone value. *)
let validate_lines (s : string) : (unit, string) result =
  let lines = String.split_on_char '\n' s in
  let rec go n = function
    | [] -> Ok ()
    | line :: rest ->
      if String.trim line = "" then go (n + 1) rest
      else (
        match validate line with
        | Ok () -> go (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 lines
