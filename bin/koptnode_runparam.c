/* koptnode's runtime parameters.

   OCaml 5.1 takes its runtime parameters only from the OCAMLRUNPARAM
   environment variable (or CAMLRUNPARAM when OCAMLRUNPARAM is unset), read
   once when the runtime starts, and offers no link-time default.  This
   constructor runs before main and so before the runtime: it sets
   OCAMLRUNPARAM to "s=64k" followed by whatever the operator set.  The
   runtime applies options left to right and a later option wins, so an
   operator's own s= still overrides the 64k-word minor heap, and every
   other option (b, v, ...) applies unchanged.  Resizing later with
   Gc.set would force a minor collection, which costs more than the whole
   boot otherwise spends collecting. */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static const char default_params[] = "s=64k";

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
