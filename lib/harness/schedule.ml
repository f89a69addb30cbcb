module Config = Recovery.Config

type crash_kind =
  | Single of int
  | Group of int list
  | Cascade of int list
  | In_checkpoint of int
  | In_flush of int

type fault =
  | Loss of float
  | Duplication of float
  | Reorder of float * float
  | Partition of { group : int list; from_ : float; until : float; drop : bool }
  | Crash of { kind : crash_kind; time : float }
  | Kill of { pid : int; time : float; storage : Durable.Fault.t option }
  | Join of { pid : int; time : float }
  | Retire of { pid : int; time : float }
  | Brownout of { pid : int; time : float; rounds : int }

type case = { n : int; k : int; seed : int; faults : fault list }

(* A cascade's victims fall half a restart delay apart, so each dies
   while the previous one is down or replaying: the recovery of one
   failure overlaps the next.  A group dies at one instant, so no
   survivor hears a failure announcement before losing its peers. *)
let crash_times ~restart_delay ~time = function
  | Single pid -> [ (pid, time) ]
  | Group pids -> List.map (fun pid -> (pid, time)) pids
  | Cascade pids ->
    List.mapi (fun i pid -> (pid, time +. (0.5 *. restart_delay *. float_of_int i))) pids
  | In_checkpoint _ | In_flush _ -> invalid_arg "Schedule.crash_times: simulator-only crash"

type explore_params = {
  n : int;
  k : int;
  messages : int;
  crashes : int;
  flushes : int;
  seed : int;
}

type scenario =
  | Explore of explore_params
  | Chaos of { case : case; calls : int }
  | Figure1 of [ `Improved | `Strom_yemini ]

type expect = Certified | Detected | Violated | Crashed

type t = {
  name : string;
  expect : expect;
  breakage : Config.breakage;
  scenario : scenario;
  choices : int list;
}

let magic = "koptlog-schedule v1"

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* 17 significant digits round-trip every binary double exactly, so a
   schedule written from a float-valued fault plan replays bit-for-bit. *)
let float_str f = Fmt.str "%.17g" f
let pids_str pids = String.concat "," (List.map string_of_int pids)

let fault_line = function
  | Loss p -> Fmt.str "loss %s" (float_str p)
  | Duplication p -> Fmt.str "duplication %s" (float_str p)
  | Reorder (p, spread) -> Fmt.str "reorder %s %s" (float_str p) (float_str spread)
  | Partition { group; from_; until; drop } ->
    Fmt.str "partition %s pids=%s from=%s until=%s"
      (if drop then "drop" else "queue")
      (pids_str group) (float_str from_) (float_str until)
  | Crash { kind; time } ->
    let body =
      match kind with
      | Single pid -> Fmt.str "single %d" pid
      | Group pids -> Fmt.str "group %s" (pids_str pids)
      | Cascade pids -> Fmt.str "cascade %s" (pids_str pids)
      | In_checkpoint pid -> Fmt.str "in-checkpoint %d" pid
      | In_flush pid -> Fmt.str "in-flush %d" pid
    in
    Fmt.str "crash %s at=%s" body (float_str time)
  | Kill { pid; time; storage } ->
    Fmt.str "kill %d at=%s storage=%s" pid (float_str time)
      (match storage with None -> "none" | Some f -> Durable.Fault.to_string f)
  | Join { pid; time } -> Fmt.str "join %d at=%s" pid (float_str time)
  | Retire { pid; time } -> Fmt.str "retire %d at=%s" pid (float_str time)
  | Brownout { pid; time; rounds } ->
    Fmt.str "brownout %d at=%s rounds=%d" pid (float_str time) rounds

let expect_to_string = function
  | Certified -> "certified"
  | Detected -> "detected"
  | Violated -> "violated"
  | Crashed -> "crashed"

let expect_of_string = function
  | "certified" -> Some Certified
  | "detected" -> Some Detected
  | "violated" -> Some Violated
  | "crashed" -> Some Crashed
  | _ -> None

let pp_expect ppf e = Fmt.string ppf (expect_to_string e)

let breakage_str (b : Config.breakage) =
  let flags =
    (if b.Config.break_orphan_check then [ "orphan-check" ] else [])
    @ (if b.Config.break_dup_suppression then [ "dup-suppression" ] else [])
    @ if b.Config.break_send_gate then [ "send-gate" ] else []
  in
  match flags with [] -> "none" | fs -> String.concat "," fs

let scenario_line = function
  | Explore { n; k; messages; crashes; flushes; seed } ->
    Fmt.str "explore n=%d k=%d messages=%d crashes=%d flushes=%d seed=%d" n k
      messages crashes flushes seed
  | Chaos { case = { n; k; seed; faults = _ }; calls } ->
    Fmt.str "chaos n=%d k=%d seed=%d calls=%d" n k seed calls
  | Figure1 `Improved -> "figure1 improved"
  | Figure1 `Strom_yemini -> "figure1 strom-yemini"

let to_string t =
  let b = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "name: %s" t.name;
  line "expect: %s" (expect_to_string t.expect);
  line "breakage: %s" (breakage_str t.breakage);
  line "scenario: %s" (scenario_line t.scenario);
  (match t.scenario with
  | Chaos { case; _ } ->
    List.iter (fun f -> line "fault: %s" (fault_line f)) case.faults
  | Explore _ | Figure1 _ -> ());
  line "choices:%s"
    (String.concat "" (List.map (fun c -> " " ^ string_of_int c) t.choices));
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Parse of string

let perr fmt = Fmt.kstr (fun s -> raise (Parse s)) fmt

let tokens s =
  String.split_on_char ' ' s |> List.filter (fun tok -> tok <> "")

let int_of s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> perr "bad integer %S" s

let float_of s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> perr "bad float %S" s

let pids_of s = List.map int_of (String.split_on_char ',' s)

(* [key=value] tokens, order-insensitive. *)
let kv_list toks =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> perr "expected key=value, got %S" tok)
    toks

let field kvs key =
  match List.assoc_opt key kvs with
  | Some v -> v
  | None -> perr "missing field %S" key

let parse_breakage s =
  if s = "none" then Config.no_breakage
  else
    List.fold_left
      (fun (b : Config.breakage) flag ->
        match flag with
        | "orphan-check" -> { b with Config.break_orphan_check = true }
        | "dup-suppression" -> { b with Config.break_dup_suppression = true }
        | "send-gate" -> { b with Config.break_send_gate = true }
        | other -> perr "unknown breakage flag %S" other)
      Config.no_breakage
      (String.split_on_char ',' s)

let parse_fault s =
  match tokens s with
  | [ "loss"; p ] -> Loss (float_of p)
  | [ "duplication"; p ] -> Duplication (float_of p)
  | [ "reorder"; p; spread ] -> Reorder (float_of p, float_of spread)
  | "partition" :: mode :: rest ->
    let drop =
      match mode with
      | "drop" -> true
      | "queue" -> false
      | m -> perr "unknown partition mode %S" m
    in
    let kvs = kv_list rest in
    Partition
      {
        group = pids_of (field kvs "pids");
        from_ = float_of (field kvs "from");
        until = float_of (field kvs "until");
        drop;
      }
  | [ "crash"; kind; arg; at ] ->
    let time =
      match kv_list [ at ] with
      | [ ("at", v) ] -> float_of v
      | _ -> perr "crash needs at=<time>, got %S" at
    in
    let kind =
      match kind with
      | "single" -> Single (int_of arg)
      | "group" -> Group (pids_of arg)
      | "cascade" -> Cascade (pids_of arg)
      | "in-checkpoint" -> In_checkpoint (int_of arg)
      | "in-flush" -> In_flush (int_of arg)
      | k -> perr "unknown crash kind %S" k
    in
    Crash { kind; time }
  | "kill" :: pid :: rest ->
    let kvs = kv_list rest in
    let storage =
      match field kvs "storage" with
      | "none" -> None
      | name -> (
        match Durable.Fault.of_string name with
        | Some f -> Some f
        | None -> perr "unknown storage fault %S" name)
    in
    Kill { pid = int_of pid; time = float_of (field kvs "at"); storage }
  | "join" :: pid :: rest ->
    let kvs = kv_list rest in
    Join { pid = int_of pid; time = float_of (field kvs "at") }
  | "retire" :: pid :: rest ->
    let kvs = kv_list rest in
    Retire { pid = int_of pid; time = float_of (field kvs "at") }
  | "brownout" :: pid :: rest ->
    let kvs = kv_list rest in
    Brownout
      {
        pid = int_of pid;
        time = float_of (field kvs "at");
        rounds =
          (match int_of (field kvs "rounds") with
          | r when r < 0 -> perr "brownout rounds must be >= 0, got %d" r
          | r -> r);
      }
  | _ -> perr "unparseable fault line %S" s

(* Scenario as parsed from its header line; chaos faults arrive on
   subsequent lines and are attached at the end. *)
type partial_scenario =
  | P_explore of explore_params
  | P_chaos of { n : int; k : int; seed : int; calls : int }
  | P_figure1 of [ `Improved | `Strom_yemini ]

let parse_scenario s =
  match tokens s with
  | "explore" :: rest ->
    let kvs = kv_list rest in
    let i key = int_of (field kvs key) in
    P_explore
      {
        n = i "n";
        k = i "k";
        messages = i "messages";
        crashes = i "crashes";
        flushes = i "flushes";
        seed = i "seed";
      }
  | "chaos" :: rest ->
    let kvs = kv_list rest in
    let i key = int_of (field kvs key) in
    P_chaos { n = i "n"; k = i "k"; seed = i "seed"; calls = i "calls" }
  | [ "figure1"; "improved" ] -> P_figure1 `Improved
  | [ "figure1"; "strom-yemini" ] -> P_figure1 `Strom_yemini
  | _ -> perr "unparseable scenario %S" s

let of_string text =
  try
    let lines =
      String.split_on_char '\n' text
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    in
    let header, rest =
      match lines with
      | [] -> perr "empty schedule"
      | h :: rest -> (h, rest)
    in
    if header <> magic then perr "bad magic %S (want %S)" header magic;
    let name = ref None
    and expect = ref None
    and breakage = ref Config.no_breakage
    and scenario = ref None
    and faults = ref []
    and choices = ref [] in
    List.iter
      (fun line ->
        match String.index_opt line ':' with
        | None -> perr "expected 'key: value', got %S" line
        | Some i ->
          let key = String.sub line 0 i in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          (match key with
          | "name" -> (
            match tokens value with
            | [ tok ] -> name := Some tok
            | _ -> perr "name must be a single token, got %S" value)
          | "expect" -> (
            match expect_of_string value with
            | Some e -> expect := Some e
            | None -> perr "unknown expect %S" value)
          | "breakage" -> breakage := parse_breakage value
          | "scenario" -> scenario := Some (parse_scenario value)
          | "fault" -> faults := parse_fault value :: !faults
          | "choices" -> choices := !choices @ List.map int_of (tokens value)
          | other -> perr "unknown key %S" other))
      rest;
    let get what = function
      | Some v -> v
      | None -> perr "missing %s line" what
    in
    let scenario =
      match get "scenario" !scenario with
      | P_explore p ->
        if !faults <> [] then perr "explore scenario cannot carry fault lines";
        Explore p
      | P_figure1 f ->
        if !faults <> [] then perr "figure1 scenario cannot carry fault lines";
        Figure1 f
      | P_chaos { n; k; seed; calls } ->
        Chaos { case = { n; k; seed; faults = List.rev !faults }; calls }
    in
    Ok
      {
        name = get "name" !name;
        expect = get "expect" !expect;
        breakage = !breakage;
        scenario;
        choices = !choices;
      }
  with Parse msg -> Error msg

let save t ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
