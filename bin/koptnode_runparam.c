/* koptnode's runtime parameters.

   OCaml 5.1 takes its runtime parameters only from the OCAMLRUNPARAM
   environment variable (or CAMLRUNPARAM when OCAMLRUNPARAM is unset), read
   once when the runtime starts, and offers no link-time default.  This
   constructor runs before main and so before the runtime: it sets
   OCAMLRUNPARAM to "s=32k,o=40" followed by whatever the operator set.
   The runtime applies options left to right and a later option wins, so
   an operator's own s= or o= still overrides the default, and every other
   option (b, v, ...) applies unchanged.

   s=32k: a 32k-word (256 KB) minor heap instead of 256k words, which is
   resident whole once the first allocation cycle has walked it.  Resizing
   later with Gc.set would force a minor collection, which costs more than
   the whole boot otherwise spends collecting.  A smaller nursery promotes
   more: a delivery's short-lived values survive to the next collection
   more often, ~34 words per delivery on steady against ~24 at 64k.

   o=40: the major heap's space overhead, the garbage the collector lets
   accumulate as a percentage of live data before it completes a cycle
   (the runtime's default is 120).  A daemon's live data is small, its
   node, one batch and the mailbox, so the slack, not the live data, sets
   the major heap's top.  At 40 the collector marks and sweeps more often
   for each word promoted, which a delivery can afford since it stopped
   allocating in proportion to the store and the buffered backlog.

   The choice, from perfbench's untraced runs (15 s, seeds 601-610 steady,
   701-710 burst, 801-810 crash), the four settings of each seed run back
   to back in a rotating order, all on the same binary (the one that links
   no Format, Arg or Filename), on a 2-vCPU VM: medians over the 10 runs
   (IQR in brackets) of rss_mb and of daemon CPU per op, and minor
   collections per 1,000 deliveries and promoted words per delivery,
   summed over the cluster's daemons from the runtime's exit statistics
   (v=0x400; on crash only the survivors and the successors, not the three
   SIGKILLed daemons, print theirs):

     s    o    rss MB        CPU ms/op         minor GCs /   promoted words
                                               1k deliveries / delivery
   steady
     64k  60   4.31 (0.03)   0.1760 (0.0108)   24.9          24.0
     32k  60   4.05 (0.02)   0.1753 (0.0094)   49.0          33.7
     64k  40   4.20 (0.02)   0.1781 (0.0095)   25.5          24.4
     32k  40   3.92 (0.02)   0.1794 (0.0048)   49.5          33.9
   burst
     64k  60   5.53 (0.23)   0.0333 (0.0057)   16.9          86.4
     32k  60   5.23 (0.15)   0.0374 (0.0071)   33.3          97.5
     64k  40   5.21 (0.19)   0.0362 (0.0029)   17.8          88.5
     32k  40   5.05 (0.20)   0.0348 (0.0047)   33.4          95.9
   crash
     64k  60   4.42 (0.04)   0.1689 (0.0041)   14.4          17.5
     32k  60   4.17 (0.05)   0.1731 (0.0062)   28.5          23.9
     64k  40   4.28 (0.08)   0.1739 (0.0118)   14.9          17.7
     32k  40   4.05 (0.02)   0.1726 (0.0122)   28.9          24.3

   Halving the nursery takes 0.25-0.30 MB off every workload's peak and
   going from o=60 to o=40 0.11-0.32 MB, together 0.37-0.48 MB;
   CPU per op moves within the runs' spread on all three.  Halving the
   nursery doubles the minor collections, but a 32k-word one still runs
   none at boot: the runtime also collects once the 64 KB buffers of the
   channels opened since the last collection add up to the minor heap's
   size, and the daemon opens none beyond the standard three (the trace
   writer and the store write through descriptors; see koptnode.ml). */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static const char default_params[] = "s=32k,o=40";

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
