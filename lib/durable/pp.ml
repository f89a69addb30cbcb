let open_report ppf (r : Durable_store.open_report) =
  Format.fprintf ppf
    "@[<v>fresh: %b@,log: %d records recovered, %d bytes + %d segments dropped@,\
     missing vs stable-length witness: %d@,\
     checkpoints: %d recovered, %d dropped@,\
     sync area: %d records, %d bytes dropped%s@]"
    r.fresh r.recovered_log r.log_bytes_dropped r.log_segments_dropped
    r.missing_log_records r.recovered_checkpoints r.checkpoints_dropped
    r.sync_records r.sync_bytes_dropped
    (if r.sync_area_missing then ", MISSING" else "")

let fault ppf f = Format.pp_print_string ppf (Fault.to_string f)
