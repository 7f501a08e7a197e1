/* LD_PRELOAD allocation-site sampler: counts malloc/calloc/realloc calls and
 * records the frame-pointer stack of every 128th, in the format sigprof.c
 * writes (to $MALLOCSITES_OUT, default mallocsites.out), so symbolize.py's
 * inclusive table reads as "share of allocations made under this symbol".
 * Build with frame pointers so this wrapper's own frame starts the chain:
 *   cc -O2 -fno-omit-frame-pointer -shared -fPIC -o mallocsites.so mallocsites.c */
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#define CAP (1u << 23)
#define DEPTH 48
#define EVERY 128
extern void *__libc_stack_end;
extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);
static uint64_t buf[CAP], calls;
static uint32_t used;

/* Single-threaded by intent (bench_e2e's simulator is): no locking. */
static inline void note(uint64_t *fp) {
    if (++calls % EVERY || used + DEPTH + 1 >= CAP) return;
    uint64_t *lo = fp - 1;
    uint32_t at = used, n = 1;
    while (n <= DEPTH && fp > lo && fp + 1 < (uint64_t *)__libc_stack_end && !((uintptr_t)fp & 7)) {
        buf[at + n++] = fp[1];
        lo = fp, fp = (uint64_t *)fp[0];
    }
    buf[at] = n - 1;
    used = at + n;
}

void *malloc(size_t n) { note(__builtin_frame_address(0)); return __libc_malloc(n); }
void *calloc(size_t a, size_t b) { note(__builtin_frame_address(0)); return __libc_calloc(a, b); }
void *realloc(void *p, size_t n) { note(__builtin_frame_address(0)); return __libc_realloc(p, n); }

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("MALLOCSITES_OUT");
    FILE *out = fopen(path ? path : "mallocsites.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[512];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fprintf(out, "# %lu allocation calls, one stack in %d\n", (unsigned long)calls, EVERY);
    for (uint32_t at = 0; at < used; at += buf[at] + 1) {
        fputc('S', out);
        for (uint64_t i = 1; i <= buf[at]; i++) fprintf(out, " %lx", (unsigned long)buf[at + i]);
        fputc('\n', out);
    }
    fclose(out);
}
