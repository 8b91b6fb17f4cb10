/* LD_PRELOAD CPU sampler: SIGPROF on process CPU time, frame-pointer stacks.
 *
 *   gcc -O2 -fPIC -shared -o sampler.so sampler.c
 *   HOSTPROF_OUT=run.samples LD_PRELOAD=./sampler.so <program built with
 *                                        -C force-frame-pointers=yes> ...
 *
 * The constructor maps a table and arms setitimer(ITIMER_PROF); the kernel
 * delivers SIGPROF to a thread that is burning the CPU time, and the handler
 * records that thread's pc and the frame-pointer chain behind it. The
 * destructor writes /proc/self/maps, a blank line, then one line per sample:
 * "1 pc ret ret ..." in hex, innermost first (symbolise.py reads it). The
 * timer is asked for 1 ms; the kernel tick makes it 4 ms on most hosts.
 */
#include "fpwalk.h"
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 16)

struct sample {
    int depth;
    uintptr_t pcs[MAX_DEPTH];
};

static struct sample *table;
static int n_samples;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    const ucontext_t *uc = ctx;
    struct sample *s = &table[i];
    s->pcs[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    s->depth = 1 + fpwalk((uintptr_t)uc->uc_mcontext.gregs[REG_RBP], s->pcs + 1, MAX_DEPTH - 1);
}

__attribute__((constructor)) static void sampler_start(void) {
    fpwalk_pid = getpid();
    table = mmap(NULL, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (table == MAP_FAILED || getpid() != fpwalk_pid)
        return;
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.samples", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fputs("\n" "# sampler: weight 1 per sample; the first address is the interrupted pc\n", out);
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputc('1', out);
        for (int d = 0; d < table[i].depth; d++)
            fprintf(out, " %lx", (unsigned long)table[i].pcs[d]);
        fputc('\n', out);
    }
    fclose(out);
}
