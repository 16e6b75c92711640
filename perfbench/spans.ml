(* In-memory span recorder for the traced run.

   A span is a named interval with the span that caused it.  Spans are
   recorded by the benchmark around its calls into the library's public
   functions — no library code is instrumented.  They are kept in memory
   and written out when the run ends, as a Chrome trace-event file.

   Recording is domain-safe: the open-span stack is per domain, and work
   handed to a pool worker names its parent explicitly (see [current]). *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  tid : int;  (** display lane: the recording domain, or a caller's choice *)
  t0 : float;
  t1 : float;
}

type t = {
  origin : float;
  next : int Atomic.t;
  lock : Mutex.t;
  mutable spans : span list;  (** newest first *)
}

let create () =
  { origin = Unix.gettimeofday (); next = Atomic.make 1; lock = Mutex.create (); spans = [] }

let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let domain_tid () = (Domain.self () :> int)

let add tr s =
  Mutex.lock tr.lock;
  tr.spans <- s :: tr.spans;
  Mutex.unlock tr.lock

let current () = match Domain.DLS.get stack with p :: _ -> p | [] -> 0

(* [span tr name f] runs [f] inside a span; [parent] overrides the
   enclosing span of this domain (for work running on a pool worker). *)
let span tr ?parent name f =
  let id = Atomic.fetch_and_add tr.next 1 in
  let parent = match parent with Some p -> p | None -> current () in
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack (id :: saved);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set stack saved;
      add tr { id; parent; name; tid = domain_tid (); t0; t1 })
    f

(* an interval timed elsewhere (e.g. observed on the serve wire) *)
let record tr ?(parent = 0) ?tid name ~t0 ~t1 =
  let id = Atomic.fetch_and_add tr.next 1 in
  let tid = match tid with Some t -> t | None -> domain_tid () in
  add tr { id; parent; name; tid; t0; t1 };
  id

let spans tr = List.rev tr.spans

(* Self time of every span: its duration minus the union of its
   children's intervals (children on other domains may overlap). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  let covered kids =
    let ivs = List.sort compare (List.map (fun c -> (c.t0, c.t1)) kids) in
    let total, last =
      List.fold_left
        (fun (acc, cur) (a, b) ->
          match cur with
          | None -> (acc, Some (a, b))
          | Some (ca, cb) ->
              if a <= cb then (acc, Some (ca, Float.max cb b))
              else (acc +. (cb -. ca), Some (a, b)))
        (0., None) ivs
    in
    match last with None -> total | Some (a, b) -> total +. (b -. a)
  in
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. covered (Hashtbl.find_all children s.id)))
    spans

(* total self seconds per span name *)
let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

let total_by_name spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. spans

let count_by_name spans name =
  List.length (List.filter (fun s -> s.name = name) spans)

(* The span-tree invariants the smoke run asserts: every parent exists,
   children lie inside their parent, self times are non-negative. *)
let validate spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let eps = 1e-9 in
  List.concat_map
    (fun (s, self) ->
      let parent_errors =
        if s.parent = 0 then []
        else
          match Hashtbl.find_opt by_id s.parent with
          | None -> [ Printf.sprintf "span %d (%s): missing parent %d" s.id s.name s.parent ]
          | Some p ->
              if s.t0 < p.t0 -. eps || s.t1 > p.t1 +. eps then
                [ Printf.sprintf "span %d (%s) lies outside parent %d (%s)" s.id s.name p.id p.name ]
              else []
      in
      if self < -.eps then
        Printf.sprintf "span %d (%s): negative self time %g" s.id s.name self :: parent_errors
      else parent_errors)
    (self_times spans)

module Json = Hlcs_json.Json

(* Chrome trace-event JSON: complete ("X") events in microseconds. *)
let to_chrome tr =
  let us t = Json.Float ((t -. tr.origin) *. 1e6) in
  let event (s, self) =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "hlcs");
        ("ph", Json.String "X");
        ("ts", us s.t0);
        ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("self_us", Json.Float (self *. 1e6));
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event (self_times (spans tr))));
      ("displayTimeUnit", Json.String "ms");
    ]

let of_chrome j =
  match Json.member "traceEvents" j with
  | Some (Json.List events) ->
      List.filter_map
        (fun e ->
          let f k = Option.bind (Jsonx.path e k) Jsonx.num in
          match
            ( Json.member "name" e,
              f [ "args"; "id" ],
              f [ "args"; "parent" ],
              f [ "ts" ],
              f [ "dur" ],
              f [ "tid" ] )
          with
          | Some (Json.String name), Some id, Some parent, Some ts, Some dur, Some tid ->
              Some
                {
                  id = int_of_float id;
                  parent = int_of_float parent;
                  name;
                  tid = int_of_float tid;
                  t0 = ts /. 1e6;
                  t1 = (ts +. dur) /. 1e6;
                }
          | _ -> None)
        events
  | _ -> []
