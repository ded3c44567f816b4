/* CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320) of a byte
 * range, slicing by 8: eight table lookups per eight input bytes
 * instead of one lookup and a closure call per byte.  Every WAL
 * record and snapshot is checksummed on write and on recovery, and a
 * put record is case-sized. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[8][256];

/* argus_crc32_init () fills the tables.  The module that declares
 * the stub calls it once, while it initialises, before any domain can
 * call argus_crc32. */
value argus_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++)
    for (int k = 1; k < 8; k++)
      table[k][n] = (table[k - 1][n] >> 8) ^ table[0][table[k - 1][n] & 0xff];
  return Val_unit;
}

/* Little-endian load, whatever the host's byte order. */
static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* argus_crc32 s off len -> the CRC-32 of s.[off .. off + len - 1].
 * The caller keeps 0 <= off <= off + len <= length s.  Allocates
 * nothing and raises nothing. */
value argus_crc32(value s, value off, value len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(off);
  intnat n = Long_val(len);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t a = load_le32(p) ^ c, b = load_le32(p + 4);
    c = table[7][a & 0xff] ^ table[6][(a >> 8) & 0xff]
        ^ table[5][(a >> 16) & 0xff] ^ table[4][a >> 24]
        ^ table[3][b & 0xff] ^ table[2][(b >> 8) & 0xff]
        ^ table[1][(b >> 16) & 0xff] ^ table[0][b >> 24];
  }
  for (; n > 0; p++, n--)
    c = table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return Val_long(c ^ 0xFFFFFFFFu);
}
