/* koptnode's runtime parameters, and what it gives back once booted.

   Three pieces of C that the OCaml runtime and Unix library do not offer:
   the constructor below fixes the runtime's parameters before it starts;
   koptnode_drop_read_only runs once, at the end of boot, and
   koptnode_malloc_trim after every full checkpoint.

   The runtime parameters.

   OCaml 5.1 takes its runtime parameters only from the OCAMLRUNPARAM
   environment variable (or CAMLRUNPARAM when OCAMLRUNPARAM is unset), read
   once when the runtime starts, and offers no link-time default.  This
   constructor runs before main and so before the runtime: it sets
   OCAMLRUNPARAM to "s=32k,o=20" followed by whatever the operator set.
   The runtime applies options left to right and a later option wins, so
   an operator's own s= or o= still overrides the default, and every other
   option (b, v, ...) applies unchanged.

   s=32k: a 32k-word (256 KB) minor heap instead of 256k words, which is
   resident whole once the first allocation cycle has walked it.  Resizing
   later with Gc.set would force a minor collection, which costs more than
   the whole boot otherwise spends collecting.  A smaller nursery promotes
   more: a delivery's short-lived values survive to the next collection
   more often, ~34 words per delivery on steady against ~24 at 64k.

   o=20: the major heap's space overhead, the garbage the collector lets
   accumulate as a percentage of live data before it completes a cycle
   (the runtime's default is 120).  A daemon's live data is small, its
   node, one batch and the mailbox, so the slack, not the live data, sets
   the major heap's top.  At 20 the collector marks and sweeps more often
   for each word promoted, which a delivery can afford since it stopped
   allocating in proportion to the store and the buffered backlog, and a
   node step stopped paying one fsync per committed output.

   o=40 was chosen first, by the sweep further below; 20 by this one,
   after a node step's output-commit records came to share one fsync of
   sync.dat.  perfbench's untraced runs (15 s, seeds 101-110 on each
   workload) of the binary before that change (one fsync per commit
   record, o=40; "per rec" below) and of this one at o=40, 30 and 20
   (OCAMLRUNPARAM=o=N; the last o= wins), run back to back for each seed
   and workload in a rotating order, on a 2-vCPU VM; medians over the 10
   runs (IQR in brackets) of rss_mb and of daemon CPU per op, and the
   median ops/s:

               o   rss MB        CPU ms/op         ops/s
   steady
     per rec  40   3.91 (0.02)   0.3148 (0.0305)     999
              40   3.92 (0.01)   0.3020 (0.0474)     999
              30   3.83 (0.01)   0.3032 (0.0355)     999
              20   3.79 (0.02)   0.3029 (0.0410)     999
   burst
     per rec  40   4.97 (0.05)   0.0450 (0.0040)   22289
              40   5.35 (0.09)   0.0274 (0.0026)   50962
              30   5.17 (0.11)   0.0269 (0.0046)   50855
              20   5.03 (0.10)   0.0276 (0.0068)   46892
   crash
     per rec  40   4.01 (0.03)   0.3058 (0.0254)     998
              40   4.01 (0.02)   0.2921 (0.0329)     999
              30   3.96 (0.01)   0.3074 (0.0471)     999
              20   3.88 (0.03)   0.3077 (0.0400)     999

   One fsync per step took burst from ~22k to ~51k ops/s and its CPU per
   op down by 40%, and the heap follows the work rate: at o=40 burst's
   peak rose 0.38 MB.  20 is the lowest o tried whose CPU per op stays
   within the per-record binary's spread on all three workloads (on
   burst it stays 40% under it); it brings burst's peak back to within
   0.06 MB of that binary's and takes 0.12-0.13 MB off steady's and
   crash's.

   The first choice, from perfbench's untraced runs (15 s, seeds 601-610
   steady, 701-710 burst, 801-810 crash), the four settings of each seed
   run back to back in a rotating order, all on the same binary (the one
   that links no Format, Arg or Filename), on a 2-vCPU VM: medians over the 10 runs
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

#define _GNU_SOURCE
#include <link.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#include <caml/mlvalues.h>

static const char default_params[] = "s=32k,o=20";

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

/* Dropping the read-only mappings after boot.

   The binary's text, its .rodata/.eh_frame segment and its header segment
   are private file mappings the kernel fills on demand, and fault-around
   fills them in 64 KB windows aligned in the address space: one page
   touched maps the fifteen around it that are in the page cache.  Boot
   (the module initialisers, the argv loop, the store's open and the
   restart) runs code the loop never runs: linked in ocamlopt's order it
   touched nearly every window of the text (~1.65 MB resident), and with
   the code a daemon runs linked first, in .text.hot (bin/dune,
   koptnode_hot.ld), it touches that ~660 KB section and a few windows
   besides.  MADV_RANDOM does not help: it does not stop fault-around.

   So once boot is over the daemon tells the kernel it no longer needs
   the pages of every PT_LOAD segment without PF_W (MADV_DONTNEED); the
   windows the loop runs fault back in, the rest stay on disk, or in the
   page cache, out of this process's resident set.  The loop's functions
   are packed together at the end of .text.hot, boot's before them, so on
   steady ~6 windows of text come back, ~100 pages (189 when whole objects
   were placed, 349 when the loop's code sat among cold code in 22 of the
   text's 27 windows).  For a private file
   mapping that was never written, MADV_DONTNEED only removes the page
   table entries: the next access maps the same page-cache page again,
   with the same bytes, as the kernel may do itself when it reclaims a
   clean file page.  The program cannot tell.  A page it did write (one
   the start code relocated, or the runtime's data) is an anonymous copy,
   and MADV_DONTNEED would throw the copy away and bring back the file's
   bytes.  No such page is touched: the writable segments (.data, .bss,
   and RELRO, which is writable until relocation ends) are skipped, and a
   page a read-only segment shares with one of them is left out of its
   range.  The binary has no text relocations (test_link.ml fails on
   DT_TEXTREL and on a read-only segment sharing a page with a writable
   one or with RELRO), so nothing else in those segments was written.

   dl_iterate_phdr reports the executable first; the walk stops there, so
   the vDSO, which a static binary may report after it, is left alone. */

static uintptr_t page_down(uintptr_t a, uintptr_t page) { return a & ~(page - 1); }

static uintptr_t page_up(uintptr_t a, uintptr_t page) { return page_down(a + page - 1, page); }

static int drop_segments(struct dl_phdr_info *info, size_t size, void *data)
{
  (void)size;
  (void)data;
  uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || (ph->p_flags & PF_W) || ph->p_memsz == 0) continue;
    uintptr_t start = page_down(info->dlpi_addr + ph->p_vaddr, page);
    uintptr_t end = page_up(info->dlpi_addr + ph->p_vaddr + ph->p_memsz, page);
    /* Trim off any page a writable segment or RELRO also covers. */
    for (int j = 0; j < info->dlpi_phnum; j++) {
      const ElfW(Phdr) *w = &info->dlpi_phdr[j];
      if (!((w->p_type == PT_LOAD && (w->p_flags & PF_W)) || w->p_type == PT_GNU_RELRO))
        continue;
      uintptr_t w_start = page_down(info->dlpi_addr + w->p_vaddr, page);
      uintptr_t w_end = page_up(info->dlpi_addr + w->p_vaddr + w->p_memsz, page);
      if (w_start >= end || w_end <= start) continue;
      if (w_start > start) end = w_start;
      else start = w_end < end ? w_end : end;
    }
    if (start < end) madvise((void *)start, end - start, MADV_DONTNEED);
  }
  return 1;
}

value koptnode_drop_read_only(value unit)
{
  (void)unit;
  dl_iterate_phdr(drop_segments, NULL);
  return Val_unit;
}

/* Returning malloc's free pages after a full checkpoint.

   OCaml allocates every block above 128 words (the checkpoint's Marshal
   strings, a Buffer's or a Hashtbl's grown array) with malloc, and frees
   it with free when the major collector sweeps it.  glibc gives memory
   back to the kernel only from the top of its heap, past 128 KB free; a
   free range below a live block stays resident.  A checkpoint is where
   such blocks come and go in bulk, so after each one malloc_trim(0)
   returns every free whole page of the heap (MADV_DONTNEED on the free
   chunks); a page malloc hands out again faults back in zeroed. */
value koptnode_malloc_trim(value unit)
{
  (void)unit;
  malloc_trim(0);
  return Val_unit;
}
