/* The monotonic source behind Argus_core.Clock: allocates nothing and
 * needs no runtime lock, hence [@@noalloc] on the OCaml side. */

#define _POSIX_C_SOURCE 200809L
#include <time.h>

#include <caml/mlvalues.h>

value argus_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
