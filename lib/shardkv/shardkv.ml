(* The sharded key-value service: shardkv_app's ring and application, and
   the service that drives a live cluster of them. *)

module Ring = Shardkv_app.Ring
module Shard_app = Shardkv_app.Shard_app
module Service = Service
