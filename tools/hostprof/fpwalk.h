/* Frame-pointer stack walk shared by sampler.c and mtrace.c.
 *
 * A frame built with frame pointers holds, at its frame pointer, the
 * caller's frame pointer and then the return address. The walk trusts
 * neither: a frame pointer must be aligned, above the one before it and
 * within MAX_STACK of where the walk began, and the two words behind it are
 * fetched with process_vm_readv on our own pid, which reports an unmapped
 * address as an error where a load would fault. Code built without frame
 * pointers (most of libc) either leaves rbp alone, so the walk resumes at
 * its caller, or parks some other value in it, which fails the checks and
 * ends the stack early. If the kernel refuses process_vm_readv every stack
 * is one frame deep; nothing crashes.
 */
#define _GNU_SOURCE
#include <stdint.h>
#include <stddef.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_STACK (8ul << 20)

static pid_t fpwalk_pid;

/* Fill pcs[0..n) with return addresses, innermost first, starting from frame
 * pointer fp; returns n. Async-signal-safe: one raw syscall per frame. */
static int fpwalk(uintptr_t fp, uintptr_t *pcs, int max) {
    uintptr_t low = fp, top = fp + MAX_STACK;
    int n = 0;
    while (n < max && fp >= low && fp < top && (fp & 7) == 0) {
        uintptr_t frame[2];
        struct iovec local = {frame, sizeof frame}, remote = {(void *)fp, sizeof frame};
        if (syscall(SYS_process_vm_readv, fpwalk_pid, &local, 1ul, &remote, 1ul, 0ul)
            != (long)sizeof frame)
            break;
        if (frame[1] < 4096)
            break;
        pcs[n++] = frame[1];
        if (frame[0] <= fp)
            break;
        low = fp = frame[0];
    }
    return n;
}
