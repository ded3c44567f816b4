type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let equal = Stdlib.( = )

(* --- Printing --- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_text f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let write ~indent ~newline json =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_text f)
    | Str s -> escape_into buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (name, value) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            escape_into buf name;
            Buffer.add_char buf ':';
            if indent then Buffer.add_char buf ' ';
            go (depth + 1) value)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 json;
  if newline then Buffer.add_char buf '\n';
  Buffer.contents buf

let to_string ?(indent = false) json = write ~indent ~newline:false json
let to_line json = write ~indent:false ~newline:true json

(* --- Parsing --- *)

exception Err of int * string

external plain_end : string -> int -> int = "argus_json_plain_end"
  [@@noalloc]

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Err (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () =
    if !pos >= n then fail "unexpected end of input"
    else begin
      let c = text.[!pos] in
      incr pos;
      c
    end
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    let got = advance () in
    if got <> c then fail (Printf.sprintf "expected %C, found %C" c got)
  in
  let literal word value =
    String.iter (fun c -> expect c) word;
    value
  in
  (* A string is decoded into one allocation of its exact length: a
     first walk validates it and sums the lengths of its plain runs and
     escapes, a second copies each plain run as one block.  A string
     with no escape is one [String.sub]. *)
  let string_body ~run ~byte =
    let rec go from =
      let stop = plain_end text from in
      run from (stop - from);
      pos := stop;
      match advance () with
      | '"' -> ()
      | '\\' ->
          (match advance () with
          | '"' -> byte '"'
          | '\\' -> byte '\\'
          | '/' -> byte '/'
          | 'n' -> byte '\n'
          | 't' -> byte '\t'
          | 'r' -> byte '\r'
          | 'b' -> byte '\b'
          | 'f' -> byte '\012'
          | 'u' ->
              let hex = String.init 4 (fun _ -> advance ()) in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* Encode the code point as UTF-8 (BMP only; surrogate
                 pairs are left as two replacement-encoded units). *)
              if code < 0x80 then byte (Char.chr code)
              else if code < 0x800 then begin
                byte (Char.chr (0xC0 lor (code lsr 6)));
                byte (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                byte (Char.chr (0xE0 lor (code lsr 12)));
                byte (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                byte (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go !pos
      | _ -> fail "control character in string"
    in
    go !pos
  in
  let parse_string () =
    expect '"';
    let first = !pos in
    let stop = plain_end text first in
    if stop < n && String.unsafe_get text stop = '"' then begin
      pos := stop + 1;
      String.sub text first (stop - first)
    end
    else begin
      let len = ref 0 in
      string_body ~run:(fun _ k -> len := !len + k) ~byte:(fun _ -> incr len);
      let b = Bytes.create !len and at = ref 0 in
      pos := first;
      string_body
        ~run:(fun from k ->
          Bytes.blit_string text from b !at k;
          at := !at + k)
        ~byte:(fun c ->
          Bytes.set b !at c;
          incr at);
      Bytes.unsafe_to_string b
    end
  in
  let parse_number () =
    let start = !pos in
    let accept f = match peek () with
      | Some c when f c -> incr pos; true
      | _ -> false
    in
    let digits () =
      let seen = ref false in
      while accept (fun c -> c >= '0' && c <= '9') do
        seen := true
      done;
      !seen
    in
    ignore (accept (fun c -> c = '-'));
    if not (digits ()) then fail "malformed number";
    if accept (fun c -> c = '.') then
      if not (digits ()) then fail "malformed number";
    if accept (fun c -> c = 'e' || c = 'E') then begin
      ignore (accept (fun c -> c = '+' || c = '-'));
      if not (digits ()) then fail "malformed number"
    end;
    float_of_string (String.sub text start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match advance () with
            | ',' -> items (v :: acc)
            | ']' -> List.rev (v :: acc)
            | c -> fail (Printf.sprintf "expected ',' or ']', found %C" c)
          in
          List (items [])
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match advance () with
            | ',' -> fields ((name, v) :: acc)
            | '}' -> List.rev ((name, v) :: acc)
            | c -> fail (Printf.sprintf "expected ',' or '}', found %C" c)
          in
          Obj (fields [])
        end
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input after value";
    v
  with
  | v -> Ok v
  | exception Err (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)
