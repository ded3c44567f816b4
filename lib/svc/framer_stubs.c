/* The framer's newline search: memchr over the bytes that arrived
 * since the last search.  A large frame arrives in many reads, and a
 * byte-at-a-time OCaml loop over it costs more than the JSON decode of
 * the same line. */

#include <string.h>
#include <caml/mlvalues.h>

/* argus_framer_newline b from stop -> offset of the first '\n' in
 * [b.[from] .. b.[stop - 1]], or -1.  The caller keeps
 * 0 <= from <= stop <= length b.  Allocates nothing and raises
 * nothing. */
value argus_framer_newline(value b, value from, value stop)
{
  const char *base = (const char *)Bytes_val(b);
  intnat f = Long_val(from), s = Long_val(stop);
  const char *p = f < s ? memchr(base + f, '\n', s - f) : NULL;
  return Val_long(p == NULL ? -1 : p - base);
}
