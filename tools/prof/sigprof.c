/* LD_PRELOAD SIGPROF sampler: at 997 Hz of process CPU time, record the
 * interrupted pc and the return addresses up the frame-pointer chain; at
 * exit write them, the resolved addresses of four glibc IFUNCs and
 * /proc/self/maps to $SIGPROF_OUT (default sigprof.out) for symbolize.py.
 * The profiled binary needs `-C force-frame-pointers=yes` (tools/profile.sh);
 * only the main thread's chain is walked, other threads record their pc.
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c -ldl */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1u << 23) /* words: 64 MiB of bss, touched as it fills */
#define DEPTH 48
extern void *__libc_stack_end;
static uint64_t buf[CAP];
static volatile uint32_t used;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t *fp = (uint64_t *)r[REG_RBP], *lo = (uint64_t *)r[REG_RSP];
    uint32_t at = used, n = 1;
    if (at + DEPTH + 1 >= CAP) return;
    buf[at + n++] = (uint64_t)r[REG_RIP];
    /* A frame record lies above the stack pointer, below the stack's end,
     * aligned, and above the record before it. */
    while (n <= DEPTH && fp > lo && fp + 1 < (uint64_t *)__libc_stack_end && !((uintptr_t)fp & 7)) {
        buf[at + n++] = fp[1];
        lo = fp, fp = (uint64_t *)fp[0];
    }
    buf[at] = n - 1;
    used = at + n;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[512];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    static const char *ifuncs[] = {"memcmp", "memcpy", "memmove", "memset"};
    for (unsigned i = 0; i < 4; i++) fprintf(out, "I %s %lx\n", ifuncs[i], (unsigned long)dlsym(RTLD_DEFAULT, ifuncs[i]));
    for (uint32_t at = 0; at < used; at += buf[at] + 1) {
        fputc('S', out);
        for (uint64_t i = 1; i <= buf[at]; i++) fprintf(out, " %lx", (unsigned long)buf[at + i]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1003}, {0, 1003}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(dump);
}
