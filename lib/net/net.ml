(* The networking subsystem: net_core's daemon-side modules and the
   driver-side ones of this library, under one name. *)

module Wire_codec = Net_core.Wire_codec
module Trace_codec = Net_core.Trace_codec
module Transport = Net_core.Transport
module Deployment = Deployment
module Proxy = Proxy
module Churn_exp = Churn_exp
module Recovery_exp = Recovery_exp
