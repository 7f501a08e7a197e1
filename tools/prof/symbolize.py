#!/usr/bin/env python3
"""Self and inclusive symbol tables from a sigprof.c / mallocsites.c dump.

    symbolize.py <dump> [top-n [leaf]]

With `leaf`, only the samples whose innermost frame is that symbol are kept:
the inclusive table then says who the leaf's time was spent for. When any
sample falls under bench_e2e's `drive` (WINDOW), a third table gives the self
samples of those stacks alone, as shares of them: the measured windows, the
call bench_e2e's cpu_ns_per_op times. `drive` is inlined, so it is looked for
in each frame's chain of inlined functions from the binary's line tables
(`llvm-addr2line -i`; tools/profile.sh builds with them), not among the symbols.

Addresses are resolved with `nm` over each executable mapping named in the
dump's copy of /proc/self/maps (`.symtab` where the file has one, `.dynsym`
otherwise), an address belonging to the nearest symbol below it. Two things
to read the tables by:

* glibc ships stripped, so a frame inside one of its internal functions
  resolves to the nearest *exported* symbol below it. The four IFUNCs the
  sampler resolved through `dlsym` (`memcmp`, `memcpy`, `memmove`, `memset`)
  are added to libc's table under their own names, so those read true;
  `_int_malloc`, `_int_free` and `malloc_consolidate` do not, and show up
  under whatever export precedes them (often `malloc`, `free` or
  `cfree`-adjacent names). Names from a `.dynsym`-only file carry a `~`.
* A leaf that keeps no frame record (glibc's assembly string functions, any
  function sampled inside its prologue) is missing its immediate caller from
  the chain: its self time is right, its caller's inclusive time is short by
  that much.

Self = samples whose innermost frame is the symbol; inclusive = samples with
the symbol anywhere in the stack, counted once per sample.
"""
import bisect
import collections
import functools
import re
import subprocess
import sys


def symbols(path):
    """Sorted [(vaddr, name)] of the defined function symbols of `path`."""
    for flags, mark in (("-C", ""), ("-CD", "~")):
        out = subprocess.run(
            ["nm", flags, "--defined-only", path], capture_output=True, text=True
        ).stdout
        table = []
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                table.append((int(parts[0], 16), mark + parts[2].split("@")[0]))
        if table:
            return sorted(table)
    return []


# The function a sample must be under to count as measured, and its file:
# bench_e2e's `drive`, the call its cpu_ns_per_op times.
WINDOW = ("drive", "bench_e2e/src/run.rs")


def inlined(path, addrs):
    """{addr: [(function, file)] at `addr` in `path`, innermost first,
    inlined functions included}, from the file's line tables. GNU addr2line
    misnames the innermost inlined function, so this is LLVM's."""
    try:
        out = subprocess.run(
            ["llvm-addr2line", "-a", "-f", "-i", "-p", "-C", "-e", path],
            input="\n".join(f"{a:#x}" for a in addrs),
            capture_output=True,
            text=True,
        ).stdout
    except FileNotFoundError:
        return {}
    chains = {}
    for line in out.splitlines():
        if line.startswith("0x"):
            addr, _, line = line.partition(": ")
            chain = chains[int(addr, 16)] = []
        name, _, where = line.removeprefix(" (inlined by) ").rpartition(" at ")
        name = re.sub(r"::h[0-9a-f]{16}$", "", name).rsplit("::", 1)[-1]
        chain.append((name, where.rsplit(":", 2)[0]))
    return chains


def measured(chain):
    return any(name == WINDOW[0] and path.endswith(WINDOW[1]) for name, path in chain)


def show(title, counts, total, top):
    print(f"\n{title:>9}      %  symbol")
    for name, n in counts.most_common(top):
        print(f"{n:9d} {100 * n / total:6.2f}  {name[:150]}")


def main():
    dump, top = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 20
    leaf = sys.argv[3] if len(sys.argv) > 3 else None
    base = {}  # path -> load bias: the lowest address the file is mapped at
    spans = []  # (start, end, path) of the executable mappings
    ifuncs, stacks, notes = [], [], []
    for line in open(dump):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            if len(f) < 6 or not f[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in f[0].split("-"))
            base[f[5]] = min(base.get(f[5], start), start)
            if "x" in f[1]:
                spans.append((start, end, f[5]))
        elif kind == "I":
            name, addr = rest.split()
            ifuncs.append((int(addr, 16), name))
        elif kind == "S":
            stacks.append([int(x, 16) for x in rest.split()])
        elif kind == "#":
            notes.append(rest.strip())
    spans.sort()
    tables = {}
    for start, end, path in spans:
        table = symbols(path)
        table += [(a - base[path], n) for a, n in ifuncs if start <= a < end]
        tables[path] = sorted(table)

    @functools.lru_cache(maxsize=None)
    def name_of(addr):
        i = bisect.bisect_right(spans, (addr, float("inf"), "")) - 1
        if i < 0 or addr >= spans[i][1]:
            return "[unmapped]"
        path = spans[i][2]
        table = tables[path]
        j = bisect.bisect_right(table, (addr - base[path], "￿")) - 1
        return table[j][1] if j >= 0 else "[" + path.rsplit("/", 1)[-1] + "]"

    # Past the interrupted pc, a frame is a return address: one byte back
    # lands in the call, inside the inlined function that made it.
    calls = [s[:1] + [a - 1 for a in s[1:]] for s in stacks]
    by_path = collections.defaultdict(set)
    for a in {a for c in calls for a in c}:
        i = bisect.bisect_right(spans, (a, float("inf"), "")) - 1
        if i >= 0 and a < spans[i][1]:
            by_path[spans[i][2]].add(a)
    in_window = set()  # the addresses inside WINDOW
    for path, addrs in by_path.items():
        chains = inlined(path, sorted(a - base[path] for a in addrs))
        in_window.update(a for a in addrs if measured(chains.get(a - base[path], ())))

    self_n, incl_n, window_n = (collections.Counter() for _ in range(3))
    for stack, call in zip(stacks, calls):
        names = [name_of(a) for a in stack]
        if names and leaf in (None, names[0]):
            self_n[names[0]] += 1
            incl_n.update(set(names))
            if not in_window.isdisjoint(call):
                window_n[names[0]] += 1
    total = sum(self_n.values()) or 1
    print(f"{total} samples from {dump}" + (f" with {leaf} innermost" if leaf else ""))
    for note in notes:
        print(note)
    show("self", self_n, total, top)
    show("inclusive", incl_n, total, top)
    inside = sum(window_n.values())
    where = f"{WINDOW[1]}'s {WINDOW[0]}"
    if inside:
        print(f"\n{inside} samples ({100 * inside / total:.2f} %) under {where}")
        show("window", window_n, inside, top)
    else:
        print(f"\nno sample under {where} (it takes line tables and llvm-addr2line)")


if __name__ == "__main__":
    main()
