/* LD_PRELOAD allocation tracer: who asks malloc for the big blocks, or —
 * with HOSTPROF_MIN=1 HOSTPROF_WEIGHT=calls — who asks it at all.
 *
 *   gcc -O2 -fPIC -shared -fno-omit-frame-pointer -o mtrace.so mtrace.c
 *   HOSTPROF_OUT=run.allocs [HOSTPROF_MIN=32768] [HOSTPROF_WEIGHT=bytes|calls]
 *     [HOSTPROF_EVENTS=524288] LD_PRELOAD=./mtrace.so <program> ...
 *
 * Interposes malloc, calloc and realloc (Rust's System allocator calls
 * them) over glibc's own __libc_* entry points and, for every request of at
 * least HOSTPROF_MIN bytes, records the size and the frame-pointer stack.
 * The destructor writes /proc/self/maps, a blank line, then one line per
 * request: "weight ret ret ..." in hex addresses, innermost first — the
 * format sampler.c writes, the weight being the request's bytes, or 1 under
 * HOSTPROF_WEIGHT=calls (the benchmark's alloc_kcalls counts requests, not
 * bytes). The table holds HOSTPROF_EVENTS requests (256 bytes each, mapped
 * lazily); requests past that are counted and reported as "# dropped N", so
 * a trace of the first part of a run cannot pass for the whole of it.
 */
#include "fpwalk.h"
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define DEFAULT_EVENTS (1l << 19)
#define EVENT_DEPTH 30

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

struct event {
    size_t size;
    int depth;
    uintptr_t pcs[EVENT_DEPTH];
};

static struct event *table;
static long max_events;
static long n_events; /* requests seen: those past max_events were dropped */
static int weigh_calls;
static size_t threshold = (size_t)-1; /* nothing recorded until the constructor ran */

static void note(size_t size, uintptr_t fp) {
    if (size < threshold)
        return;
    long i = __atomic_fetch_add(&n_events, 1, __ATOMIC_RELAXED);
    if (i >= max_events)
        return;
    table[i].size = weigh_calls ? 1 : size;
    table[i].depth = fpwalk(fp, table[i].pcs, EVENT_DEPTH);
}

void *malloc(size_t size) {
    note(size, (uintptr_t)__builtin_frame_address(0));
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    note(n * size, (uintptr_t)__builtin_frame_address(0));
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size) {
    note(size, (uintptr_t)__builtin_frame_address(0));
    return __libc_realloc(p, size);
}

__attribute__((constructor)) static void mtrace_start(void) {
    fpwalk_pid = getpid();
    const char *events = getenv("HOSTPROF_EVENTS");
    max_events = events ? strtol(events, NULL, 0) : DEFAULT_EVENTS;
    if (max_events <= 0)
        max_events = DEFAULT_EVENTS;
    table = mmap(NULL, sizeof(struct event) * max_events, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (table == MAP_FAILED)
        return;
    const char *weight = getenv("HOSTPROF_WEIGHT");
    weigh_calls = weight && strcmp(weight, "calls") == 0;
    const char *min = getenv("HOSTPROF_MIN");
    threshold = min ? strtoul(min, NULL, 0) : 32768;
}

__attribute__((destructor)) static void mtrace_stop(void) {
    threshold = (size_t)-1; /* the dump's own buffers are not events */
    if (table == MAP_FAILED || getpid() != fpwalk_pid)
        return;
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.allocs", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fprintf(out, "\n# mtrace weight=%s: %s; every address is a return address\n",
            weigh_calls ? "calls" : "bytes",
            weigh_calls ? "1 per request" : "the bytes requested");
    long n = n_events < max_events ? n_events : max_events;
    fprintf(out, "# dropped %ld\n", n_events - n);
    for (long i = 0; i < n; i++) {
        fprintf(out, "%zu", table[i].size);
        for (int d = 0; d < table[i].depth; d++)
            fprintf(out, " %lx", (unsigned long)table[i].pcs[d]);
        fputc('\n', out);
    }
    fclose(out);
}
