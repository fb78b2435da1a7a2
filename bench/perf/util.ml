(* Clock, order statistics, span recording and JSON output shared by the
   workloads and the layer ladder. *)

(* Nanoseconds from the monotonic clock.  Warm serve queries take a few
   microseconds, which a microsecond wall clock would quantise. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted_copy xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let summarize xs =
  let s = sorted_copy xs in
  { median = quantile s 0.5; q1 = quantile s 0.25; q3 = quantile s 0.75; n = Array.length s }

let median xs = (summarize xs).median

(* [k] consecutive windows of [xs], the remainder joining the last one. *)
let windows k xs =
  let n = Array.length xs in
  let w = max 1 (n / k) in
  Array.init (min k n) (fun i -> Array.sub xs (i * w) (if i = k - 1 then n - (i * w) else w))

(* A growable float array: latency samples, one per operation. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* ---- spans ----

   The benchmark's own trace: one span per rep, job call, session, query and
   ladder rung, kept in memory and written out when the run ends.  Times are
   monotonic nanoseconds; [req] is the rep, session or query id. *)
module Spans = struct
  type span = {
    id : int;
    name : string;
    start_ns : int;
    mutable end_ns : int;
    parent : int;  (** id of the enclosing span, -1 at the root *)
    req : int;
  }

  type t = { mutable spans : span list; mutable next : int; enabled : bool }

  let create ~enabled = { spans = []; next = 0; enabled }
  let root = -1

  let record t ~name ~parent ~req ~start_ns ~end_ns =
    if t.enabled then begin
      t.spans <- { id = t.next; name; start_ns; end_ns; parent; req } :: t.spans;
      t.next <- t.next + 1
    end

  (* An enclosing span: its id is taken now so children can name it. *)
  let start t ~name ~parent ~req =
    let s = { id = t.next; name; start_ns = now_ns (); end_ns = -1; parent; req } in
    if t.enabled then begin
      t.spans <- s :: t.spans;
      t.next <- t.next + 1
    end;
    s

  let stop s = s.end_ns <- now_ns ()

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          "{\"columns\":[\"id\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"req\"],\"spans\":[";
        List.iteri
          (fun i s ->
            if i > 0 then output_string oc ",\n";
            Printf.fprintf oc "[%d,\"%s\",%d,%d,%d,%d]" s.id s.name s.start_ns s.end_ns
              s.parent s.req)
          (List.rev t.spans);
        output_string oc "]}\n")
end

(* ---- JSON output ---- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

let rec add_json b = function
  | Num x when Float.is_finite x -> Buffer.add_string b (Printf.sprintf "%.17g" x)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Core.Serve.json_escape s);
      Buffer.add_char b '"'
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_json b (Str k);
          Buffer.add_char b ':';
          add_json b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 256 in
  add_json b j;
  Buffer.contents b
