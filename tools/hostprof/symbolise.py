#!/usr/bin/env python3
"""Fold a sampler.c / mtrace.c dump by function.

    symbolise.py run.samples [more.samples ...] [--top 30] [--stacks 10] [--depth 12] [--grep REGEX]
    symbolise.py run.samples [more.samples ...] --count REGEX [REGEX ...]

The dump is /proc/self/maps, a blank line, a "# sampler" or "# mtrace" line
(mtrace names its weight there, "weight=bytes" or "weight=calls", and says on
a "# dropped N" line how many requests did not fit its table — a warning on
top of the output when N is not 0), then one event per line: a decimal weight
(1 per CPU sample, the bytes of an allocation or 1 per allocator call) and
the stack's hex addresses, innermost first. Each address is
mapped to its file (subtract the mapping's load base), resolved with
`addr2line -f -C -i` (inlined callees become frames of their own; in a
stripped file, such as libc, a name is kept only if the address lies inside
that symbol's span as `nm -D --defined-only -S` gives it, and an address
outside every exported symbol is written `<libc.so.6+0x…>`) and the
events are folded three ways: self (the innermost frame), inclusive (every
function on the stack, once per event) and whole stacks. `--grep` keeps only
events whose stack, written "callee < caller < ...", matches (so
"pane_to_block < genx::driver" asks for one call site). Shares are of the
total weight. `--count` prints, instead of the tables, one line per
pattern: the weight of the events whose stack matches it — a census of
several call sites from one symbolisation pass, where each `--grep` run
resolves the whole dump again. Several dumps
of the same program (each carries its own maps, so address-space
randomisation does not matter) are folded into one table.
"""
import argparse
import collections
import os
import re
import subprocess


def load(path):
    """(maps, events, leaf_is_pc, unit of the weights, events the tracer dropped)"""
    maps, events, leaf_is_pc, unit, dropped = [], [], True, "samples", 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                break
            span, _perms, _offset, _dev, _inode, *name = line.split()
            lo, hi = (int(x, 16) for x in span.split("-"))
            if name and name[0].startswith("/"):
                maps.append((lo, hi, name[0]))
        for line in f:
            if line.startswith("# dropped"):
                dropped = int(line.split()[2])
                continue
            if line.startswith("#"):
                leaf_is_pc = line.startswith("# sampler")
                weight = re.search(r"weight=(\w+)", line)
                unit = "samples" if leaf_is_pc else weight.group(1) if weight else "bytes"
                continue
            weight, *stack = line.split()
            events.append((int(weight), [int(a, 16) for a in stack]))
    return maps, events, leaf_is_pc, unit, dropped


def resolve(maps, addresses):
    """address -> list of function names, innermost (inlined) first."""
    # A shared object or PIE is linked at 0 and loaded at the start of its
    # first mapping: an address in it is that base plus the link address.
    base = {}
    for lo, _, name in maps:
        base[name] = min(lo, base.get(name, lo))
    by_file = collections.defaultdict(list)
    for a in addresses:
        for lo, hi, name in maps:
            if lo <= a < hi:
                by_file[name].append((a, a - base[name]))
                break
    names = {}
    for name, pairs in by_file.items():
        query = "\n".join(hex(rel) for _, rel in pairs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", name],
            input=query, capture_output=True, text=True, check=False,
        ).stdout.splitlines()
        frames, current = [], None
        for i, line in enumerate(out):
            if line.startswith("0x"):
                current = []
                frames.append(current)
                base = i
            elif current is not None and (i - base) % 2 == 1:
                current.append(tidy(line))
        exported = dynamic_symbols(name)
        for (a, rel), fns in zip(pairs, frames):
            names[a] = checked(fns or ["??"], rel, exported, name)
    return names


def dynamic_symbols(path):
    """name -> [(start, end)] of the exported symbols of one file, from
    `nm -D --defined-only -S` (link addresses, sized symbols only)."""
    out = subprocess.run(
        ["nm", "-D", "--defined-only", "-S", path],
        capture_output=True, text=True, check=False,
    ).stdout.splitlines()
    spans = collections.defaultdict(list)
    for line in out:
        fields = line.split()
        if len(fields) != 4:
            continue
        start, size, _kind, sym = fields
        spans[sym.split("@")[0]].append((int(start, 16), int(start, 16) + int(size, 16)))
    return spans


def checked(fns, rel, exported, path):
    """`addr2line`'s frames for one address, unless it named the address
    after the nearest exported symbol of a stripped file, which need not
    hold it (memcpy's variants in libc lie past a 13-byte symbol): then
    the symbol whose span holds the address, or `<file+0xoffset>`."""
    outer = fns[-1]
    if outer != "??" and outer not in exported:
        return fns  # named from the file's own symbol table or debug info
    if any(lo <= rel < hi for lo, hi in exported.get(outer, [])):
        return fns
    holder = [sym for sym, spans in exported.items() if any(lo <= rel < hi for lo, hi in spans)]
    return [min(holder)] if holder else [f"<{os.path.basename(path)}+{rel:#x}>"]


def tidy(fn):
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    fn = re.sub(r"<(.+?) as (.+?)>", r"<\1>", fn)
    return fn.replace("$LT$", "<").replace("$GT$", ">").replace("$u20$", " ")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--stacks", type=int, default=10)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--grep")
    ap.add_argument("--count", nargs="+", metavar="REGEX")
    args = ap.parse_args()

    total = kept = n_events = n_dropped = 0
    self_w, incl_w, stack_w = (collections.Counter() for _ in range(3))
    counts = [(re.compile(pattern), pattern) for pattern in args.count or []]
    counted = collections.Counter()
    for dump in args.dumps:
        maps, events, leaf_is_pc, unit, dropped = load(dump)
        n_dropped += dropped
        # A return address points past its call; step back into it.
        lookup = lambda i, a: a if leaf_is_pc and i == 0 else a - 1
        names = resolve(maps, {lookup(i, a) for _, stack in events for i, a in enumerate(stack)})
        n_events += len(events)
        for w, stack in events:
            total += w
            frames = []
            for i, a in enumerate(stack):
                frames += names.get(lookup(i, a), ["??"])
            written = " < ".join(frames)
            for regex, pattern in counts:
                if regex.search(written):
                    counted[pattern] += w
            if not frames or (args.grep and not re.search(args.grep, written)):
                continue
            kept += w
            self_w[frames[0]] += w
            for fn in set(frames):
                incl_w[fn] += w
            stack_w[tuple(frames[: args.depth])] += w

    if n_dropped:
        print(f"WARNING: the tracer's table was full and {n_dropped} later requests were dropped: "
              f"this folds only the first {share(n_events, n_events + n_dropped)} of the run "
              f"(set HOSTPROF_EVENTS to at least {n_events + n_dropped})\n")
    if counts:
        print(f"{n_events} events, {total} {unit}")
        for _, pattern in counts:
            print(f"{share(counted[pattern], total):>7} {counted[pattern]:>14}  {pattern}")
        return
    print(f"{n_events} events, {total} {unit}; {kept} kept ({share(kept, total)})")
    for title, table in (("self", self_w), ("inclusive", incl_w)):
        print(f"\n-- {title} --")
        for fn, w in table.most_common(args.top):
            print(f"{share(w, total):>7} {w:>14}  {fn}")
    print("\n-- stacks --")
    for frames, w in stack_w.most_common(args.stacks):
        print(f"{share(w, total):>7} {w:>14}")
        for fn in frames:
            print(f"{'':>24}{fn}")


def share(w, total):
    return f"{100 * w / total:.1f}%" if total else "-"


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # `| head`
        pass
