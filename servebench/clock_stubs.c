/* A monotonic nanosecond clock for request latencies: gettimeofday's
   microsecond steps would quantize every reported percentile. */
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t servebench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value servebench_now_ns_byte(value unit)
{
  return caml_copy_int64(servebench_now_ns(unit));
}
