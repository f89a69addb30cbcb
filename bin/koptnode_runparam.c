/* koptnode's runtime parameters.

   OCaml 5.1 takes its runtime parameters only from the OCAMLRUNPARAM
   environment variable (or CAMLRUNPARAM when OCAMLRUNPARAM is unset), read
   once when the runtime starts, and offers no link-time default.  This
   constructor runs before main and so before the runtime: it sets
   OCAMLRUNPARAM to "s=64k,o=60" followed by whatever the operator set.
   The runtime applies options left to right and a later option wins, so
   an operator's own s= or o= still overrides the default, and every other
   option (b, v, ...) applies unchanged.

   s=64k: a 64k-word minor heap instead of 256k words, which is resident
   whole once the first allocation cycle has walked it.  Resizing later
   with Gc.set would force a minor collection, which costs more than the
   whole boot otherwise spends collecting.

   o=60: the major heap's space overhead, the garbage the collector lets
   accumulate as a percentage of live data before it completes a cycle
   (the runtime's default is 120).  A daemon's live data is small, its
   node, one batch and the mailbox, so at 120 the slack, not the live
   data, sets the major heap's top (~540k words on the benchmark's burst
   workload, with 40-70k reachable at the end of a batch).  At 60 the
   collector marks and sweeps more often for each word promoted, which a
   delivery could afford once it stopped allocating in proportion to the
   store and the buffered backlog.  perfbench's rss_mb (MB) and daemon CPU
   per op, medians of 3 pairs per value (seeds 11-13) against a daemon
   with neither those allocation cuts nor o=60, on a 2-vCPU VM:

     o     steady rss      steady CPU ms/op   burst rss       burst CPU ms/op
     120   6.52 -> 6.55    0.333 -> 0.285     9.49 -> 9.42    0.080 -> 0.051
     80    6.51 -> 6.21    0.379 -> 0.318     9.23 -> 8.27    0.090 -> 0.059
     60    6.52 -> 6.01    0.365 -> 0.312     9.36 -> 7.77    0.091 -> 0.063
     40    6.54 -> 5.93    0.393 -> 0.336     9.22 -> 7.43    0.082 -> 0.058

   Lowering o costs some burst CPU (the ratio to that daemon's is 0.64 at
   120, 0.69 at 60, 0.70 at 40) and buys resident memory; at 60, CPU per
   op stays below that daemon's on steady, burst and crash. */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static const char default_params[] = "s=64k,o=60";

__attribute__((constructor)) static void koptnode_runparam(void)
{
  const char *operator_params = getenv("OCAMLRUNPARAM");
  if (operator_params == NULL) operator_params = getenv("CAMLRUNPARAM");
  if (operator_params == NULL || operator_params[0] == '\0') {
    setenv("OCAMLRUNPARAM", default_params, 1);
    return;
  }
  size_t len = sizeof default_params + 1 + strlen(operator_params);
  char *params = malloc(len);
  if (params == NULL) return;
  snprintf(params, len, "%s,%s", default_params, operator_params);
  setenv("OCAMLRUNPARAM", params, 1);
  free(params);
}
