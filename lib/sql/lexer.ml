(* Hand-written SQL lexer for the subset the paper's examples use. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string (* uppercased keyword *)
  | SYM of string (* punctuation / operators *)
  | EOF

exception Error of string

let keywords =
  [ "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER";
    "ASC"; "DESC"; "AND"; "OR"; "NOT"; "IN"; "EXISTS"; "IS"; "NULL"; "AS";
    "JOIN"; "LEFT"; "OUTER"; "ON"; "TRUE"; "FALSE"; "COUNT"; "SUM"; "MIN";
    "MAX"; "AVG"; "CREATE"; "VIEW"; "UNION"; "ALL" ]

(* One hash probe per identifier instead of a scan of [keywords]. *)
module Kw = Hashtbl.Make (String)

let keyword_table =
  let t = Kw.create 64 in
  List.iter (fun k -> Kw.replace t k ()) keywords;
  t

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '#'

let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let word = String.sub src !i (!j - !i) in
      let up = String.uppercase_ascii word in
      if Kw.mem keyword_table up then emit (KW up) else emit (IDENT word);
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && (is_digit src.[!j] || src.[!j] = '_') do incr j done;
      if !j < n && src.[!j] = '.' then begin
        incr j;
        while !j < n && is_digit src.[!j] do incr j done;
        let text =
          String.concat ""
            (String.split_on_char '_' (String.sub src !i (!j - !i)))
        in
        emit (FLOAT (float_of_string text))
      end
      else begin
        let text =
          String.concat ""
            (String.split_on_char '_' (String.sub src !i (!j - !i)))
        in
        emit (INT (int_of_string text))
      end;
      i := !j
    end
    else if c = '\'' then begin
      let j = ref (!i + 1) in
      let buf = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !j >= n then raise (Error "unterminated string literal");
        if src.[!j] = '\'' then
          if !j + 1 < n && src.[!j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            j := !j + 2
          end
          else begin
            fin := true;
            incr j
          end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      emit (STRING (Buffer.contents buf));
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | "!=" ->
        emit (SYM (if two = "!=" then "<>" else two));
        i := !i + 2
      | _ -> (
        match c with
        | '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | '%' | '=' | '<'
        | '>' | ';' ->
          emit (SYM (String.make 1 c));
          incr i
        | _ -> raise (Error (Printf.sprintf "unexpected character %c" c)))
    end
  done;
  List.rev (EOF :: !toks)

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "ident %s" s
  | INT i -> Fmt.pf ppf "int %d" i
  | FLOAT f -> Fmt.pf ppf "float %g" f
  | STRING s -> Fmt.pf ppf "string '%s'" s
  | KW k -> Fmt.string ppf k
  | SYM s -> Fmt.string ppf s
  | EOF -> Fmt.string ppf "<eof>"
