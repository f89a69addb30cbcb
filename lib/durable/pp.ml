let fault ppf f = Format.pp_print_string ppf (Fault.to_string f)
