/* The JSON string decoder's run scan (Argus_core.Json): a request line
 * can carry a megabyte-sized source, and a byte-at-a-time OCaml loop
 * over it costs more than everything else in its decode.  Allocates
 * nothing and raises nothing, hence [@@noalloc] on the OCaml side. */

#include <caml/mlvalues.h>

/* argus_json_plain_end s from -> the offset of the first byte at or
 * after [from] that a JSON string cannot copy verbatim ('"', '\\' or a
 * control character), or the length of [s]. */
value argus_json_plain_end(value s, value from)
{
  const unsigned char *p = (const unsigned char *)String_val(s);
  intnat n = (intnat)caml_string_length(s);
  intnat i = Long_val(from);
  while (i < n && p[i] != '"' && p[i] != '\\' && p[i] >= 0x20) i++;
  return Val_long(i);
}
