/* LD_PRELOAD allocation tracer: who asks malloc for the big blocks.
 *
 *   gcc -O2 -fPIC -shared -fno-omit-frame-pointer -o mtrace.so mtrace.c
 *   HOSTPROF_OUT=run.allocs [HOSTPROF_MIN=32768] LD_PRELOAD=./mtrace.so <program> ...
 *
 * Interposes malloc, calloc and realloc (Rust's System allocator calls
 * them) over glibc's own __libc_* entry points and, for every request of at
 * least HOSTPROF_MIN bytes, records the size and the frame-pointer stack.
 * The destructor writes /proc/self/maps, a blank line, then one line per
 * request: "size ret ret ..." in hex addresses, innermost first — the
 * format sampler.c writes, with the request's bytes as the weight.
 */
#include "fpwalk.h"
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>

#define MAX_EVENTS (1 << 19)
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
static int n_events;
static size_t threshold = (size_t)-1; /* nothing recorded until the constructor ran */

static void note(size_t size, uintptr_t fp) {
    if (size < threshold)
        return;
    int i = __atomic_fetch_add(&n_events, 1, __ATOMIC_RELAXED);
    if (i >= MAX_EVENTS)
        return;
    table[i].size = size;
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
    table = mmap(NULL, sizeof(struct event) * MAX_EVENTS, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED)
        return;
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
    fputs("\n" "# mtrace: weight is the bytes requested; every address is a return address\n", out);
    int n = n_events < MAX_EVENTS ? n_events : MAX_EVENTS;
    for (int i = 0; i < n; i++) {
        fprintf(out, "%zu", table[i].size);
        for (int d = 0; d < table[i].depth; d++)
            fprintf(out, " %lx", (unsigned long)table[i].pcs[d]);
        fputc('\n', out);
    }
    fclose(out);
}
