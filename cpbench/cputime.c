/* The calling thread's CPU time in ns: time it actually ran, without the
   time it waited for a CPU (another task, or the hypervisor running
   another guest when steal time is accounted). */

#include <time.h>
#include <caml/mlvalues.h>

value cpbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
