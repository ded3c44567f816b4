/* CPU clocks and the host-speed calibration pass. */

#define _POSIX_C_SOURCE 200809L
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/types.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

/* Seconds of CPU [pid] has used so far, or -1.0 when the clock cannot
   be read (the process is gone).  This is the process-wide CPU clock
   of [pid], which counts all of its threads, live or exited;
   /proc/<pid>/stat gives the same total only in clock ticks of 10 ms. */
value argbench_process_cpu_s(value pid)
{
  clockid_t clk;
  struct timespec ts;
  if (clock_getcpuclockid((pid_t)Int_val(pid), &clk) != 0 || clock_gettime(clk, &ts) != 0)
    return caml_copy_double(-1.0);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* --- host-speed calibration -------------------------------------------

   A fixed piece of work that uses neither Argus nor the OCaml runtime,
   so no change to the program can change its cost; only the host can.
   It mixes the kinds of work a server does: sorting with unpredictable
   branches and indirect calls (qsort), probing a 512 KiB hash table,
   a dependent hash over 16 KiB, and small malloc/free pairs.  All of
   it fits the core's caches; main memory, whose latency on a shared
   host moves from one pass to the next, is left out. */

#define CAL_SORT 4096u
#define CAL_SLOTS 65536u /* 8-byte slots: 512 KiB */
#define CAL_KEYS 20000u
#define CAL_HASH_BYTES 16384u
#define CAL_HASH_ROUNDS 16u
#define CAL_ALLOCS 8000u

static uint32_t cal_sort[CAL_SORT];
static uint64_t cal_table[CAL_SLOTS];
static unsigned char cal_buf[CAL_HASH_BYTES];
static volatile uint64_t cal_sink;

static uint64_t cal_lcg(uint64_t *s)
{
  *s = *s * 6364136223846793005ull + 1442695040888963407ull;
  return *s >> 17;
}

static int cal_cmp(const void *a, const void *b)
{
  uint32_t x = *(const uint32_t *)a, y = *(const uint32_t *)b;
  return (x > y) - (x < y);
}

/* Every pass does the same work: the data comes from a fixed seed. */
static void cal_pass(void)
{
  uint64_t s = 42, acc = 0;
  for (unsigned i = 0; i < CAL_SORT; i++) cal_sort[i] = (uint32_t)cal_lcg(&s);
  qsort(cal_sort, CAL_SORT, sizeof cal_sort[0], cal_cmp);
  acc += cal_sort[CAL_SORT / 2];
  memset(cal_table, 0, sizeof cal_table);
  for (unsigned i = 0; i < CAL_KEYS; i++) {
    uint64_t k = cal_lcg(&s) | 1, h = (k * 0x9E3779B97F4A7C15ull) >> 48;
    while (cal_table[h] != 0 && cal_table[h] != k) h = (h + 1) & (CAL_SLOTS - 1);
    cal_table[h] = k;
  }
  s = 42;
  for (unsigned i = 0; i < CAL_SORT; i++) cal_lcg(&s);
  for (unsigned i = 0; i < CAL_KEYS; i++) {
    uint64_t k = cal_lcg(&s) | 1, h = (k * 0x9E3779B97F4A7C15ull) >> 48;
    while (cal_table[h] != k) h = (h + 1) & (CAL_SLOTS - 1);
    acc += h;
  }
  for (unsigned i = 0; i < CAL_HASH_BYTES; i++) cal_buf[i] = (unsigned char)(i * 7 + (i >> 5));
  for (unsigned r = 0; r < CAL_HASH_ROUNDS; r++) {
    uint64_t h = 14695981039346656037ull + r;
    for (unsigned i = 0; i < CAL_HASH_BYTES; i++) h = (h ^ cal_buf[i]) * 1099511628211ull;
    acc += h;
  }
  for (unsigned i = 0; i < CAL_ALLOCS; i++) {
    size_t n = 16 + (i * 7) % 112;
    unsigned char *b = malloc(n);
    if (b == NULL) continue;
    memset(b, (int)i, n);
    acc += b[n - 1];
    free(b);
  }
  cal_sink += acc;
}

static double thread_cpu_s(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* CPU seconds the calling thread spends on one calibration pass.  The
   OCaml runtime is released meanwhile, so other domains run and
   collect. */
value argbench_calib_pass(value unit)
{
  double t;
  (void)unit;
  caml_release_runtime_system();
  t = thread_cpu_s();
  cal_pass();
  t = thread_cpu_s() - t;
  caml_acquire_runtime_system();
  return caml_copy_double(t);
}
