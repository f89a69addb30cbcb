open Trace

let entry = Depend.Pp.entry

let identity ppf (id : Wire.identity) =
  Format.fprintf ppf "%d:%a#%d" id.origin entry id.origin_interval id.idx

let announcement ppf (a : Wire.announcement) =
  Format.fprintf ppf "%s{P%d ends %a}"
    (if a.failure then "fail" else "rollback")
    a.from_ entry a.ending

let output_id ppf (o : Wire.output_id) =
  Format.fprintf ppf "%a#%d" entry o.out_interval o.out_idx

let reason ppf = function
  | Orphan_message -> Format.pp_print_string ppf "orphan"
  | Duplicate -> Format.pp_print_string ppf "duplicate"

let event ppf = function
  | Interval_started { pid; interval; replay; by; _ } ->
    Format.fprintf ppf "P%d starts %a%s%s" pid entry interval
      (match by with None -> " (marker)" | Some _ -> "")
      (if replay then " [replay]" else "")
  | Message_sent { id; src; dst; send_interval } ->
    Format.fprintf ppf "P%d sends %a to P%d from %a" src identity id dst
      entry send_interval
  | Message_released { id; dep_size; blocked; _ } ->
    Format.fprintf ppf "released %a |dep|=%d blocked=%.2f" identity id dep_size
      blocked
  | Message_delivered { id; dst; interval; _ } ->
    Format.fprintf ppf "P%d delivers %a starting %a" dst identity id entry
      interval
  | Message_discarded { id; dst; reason = r } ->
    Format.fprintf ppf "P%d discards %a (%a)" dst identity id reason r
  | Send_cancelled { id; src } ->
    Format.fprintf ppf "P%d cancels unreleased %a" src identity id
  | Stability_advanced { pid; upto } ->
    Format.fprintf ppf "P%d stable up to %a" pid entry upto
  | Checkpoint_taken { pid; interval } ->
    Format.fprintf ppf "P%d checkpoints at %a" pid entry interval
  | Crashed { pid; first_lost } ->
    Format.fprintf ppf "P%d crashes" pid;
    Option.iter (Format.fprintf ppf ", loses from %a" entry) first_lost
  | Restarted { pid; announced; new_current } ->
    Format.fprintf ppf "P%d restarts, announces %a, continues as %a" pid
      announcement announced entry new_current
  | Rolled_back { pid; restored; first_undone; new_current; because } ->
    Format.fprintf ppf "P%d rolls back to %a (undoing from %a) due to %a, continues as %a"
      pid entry restored entry first_undone announcement because
      entry new_current
  | Announcement_received { pid; ann } ->
    Format.fprintf ppf "P%d receives %a" pid announcement ann
  | Notice_sent { pid; entries } ->
    Format.fprintf ppf "P%d broadcasts logging progress (%d entries)" pid entries
  | Output_buffered { pid; id; text } ->
    Format.fprintf ppf "P%d buffers output %a %S" pid output_id id text
  | Output_committed { pid; id; text; latency } ->
    Format.fprintf ppf "P%d commits output %a %S after %.2f" pid output_id id
      text latency
  | Recovery_completed { pid; replayed } ->
    Format.fprintf ppf "P%d completes recovery (%d records replayed)" pid replayed

let trace_entry ppf e = Format.fprintf ppf "[%8.2f] %a" e.time event e.ev

let trace ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_force_newline trace_entry ppf (events t)
