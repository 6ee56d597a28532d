"""Sampled per-module split of a gprof profile.

Each sampled function is charged to the `src/<module>` directory that
defines it, read from the profiling binary's debug info (`nm -l`).
Functions defined elsewhere (std:: templates, headers under /usr/include)
are charged to their calling modules in proportion to the call counts in
gprof's call graph. Whatever has no caller in src/ lands in `other`.

The profiling build links statically, so libc and libstdc++ code (malloc,
memcpy, printf, red-black tree steps) is sampled too. That code is not
compiled with -pg, so gprof records no callers for it; it is reported as
`lib`, not guessed onto a module. Kernel time (page zeroing, exit) and
process start-up are not sampled; callers report that gap beside the split
and never spread it over the modules.

GCC names coroutine bodies `<function>.Frame.actor`. gprof drops symbols
with a '.', so their samples land on the preceding symbol of the same
translation unit: the module is right, the symbol name in `top` may not be.
"""
import os
import re
import subprocess

# Modules reported by name; every other src/ directory (common, trace, ...)
# is folded into "other" together with the harness and unresolved symbols.
MODULES = ("proto", "apps", "mem", "sim", "svm", "net", "fault", "metrics",
           "tracing", "check")
BUCKETS = MODULES + ("lib", "other")

_FLAT = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S+)\s*$")
_PRIMARY = re.compile(
    r"^\[\d+\]\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(?:[\d+]+\s+)?(\S+)(?: <cycle \d+>)? \[\d+\]$")
_ARC = re.compile(r"^\s+[\d.]+\s+[\d.]+\s+(\d+)(?:/\d+)?\s+(\S+)(?: <cycle \d+>)? \[\d+\]$")
_SPONTANEOUS = "<spontaneous>"


def _symbol_files(binary, cache_path):
    """Mangled symbol -> defining source path, cached beside the binary."""
    stamp = str(os.stat(binary).st_mtime_ns)
    if os.path.exists(cache_path):
        with open(cache_path) as f:
            lines = f.read().splitlines()
        if lines and lines[0] == stamp:
            return dict(line.split("\t", 1) for line in lines[1:])
    out = subprocess.run(["nm", "-l", "--defined-only", binary], check=True,
                         capture_output=True, text=True).stdout
    files = {}
    for line in out.splitlines():
        head, _, loc = line.partition("\t")
        parts = head.split()
        if len(parts) == 3 and loc:
            files.setdefault(parts[2], loc.rsplit(":", 1)[0])
    with open(cache_path, "w") as f:
        f.write(stamp + "\n" + "".join(f"{k}\t{v}\n" for k, v in files.items()))
    return files


def _module_of(path, src_root):
    if not path:
        return None
    rel = os.path.relpath(os.path.realpath(path), src_root)
    if rel.startswith(".."):
        return None  # std / libc / third-party header: charge the caller.
    module = rel.split(os.sep, 1)[0]
    return module if module in MODULES else "other"


def _parse(text):
    """gprof -b output -> ({symbol: self seconds}, {symbol: {parent: calls}})."""
    flat, parents = {}, {}
    flat_part, _, graph_part = text.partition("Call graph")
    for line in flat_part.splitlines():
        m = _FLAT.match(line)
        if m and float(m.group(1)) > 0:
            flat[m.group(2)] = float(m.group(1))
    block = []
    for line in graph_part.splitlines():
        if line.startswith("-----"):
            block = []
            continue
        if line.startswith("["):
            m = _PRIMARY.match(line)
            if m and block is not None:  # Not a "<cycle N as a whole>" entry.
                parents[m.group(1)] = dict(block)
            block = None
            continue
        if block is None:
            continue  # Children of the primary line.
        if line.strip() == _SPONTANEOUS:
            block.append((_SPONTANEOUS, 1))
            continue
        arc = _ARC.match(line)
        if arc:
            block.append((arc.group(2), int(arc.group(1))))
    return flat, parents


def split(binary, gmon_files, src_root, cache_path):
    """Returns {"modules": {module: seconds}, "sampled_s": total, "top": [...]}."""
    text = subprocess.run(["gprof", "-b", "--no-demangle", binary, *gmon_files], check=True,
                          capture_output=True, text=True).stdout
    flat, parents = _parse(text)
    files = _symbol_files(binary, cache_path)
    memo = {}

    def shares(sym, depth=0):
        # {module: fraction} for one symbol: its own module, or its callers'.
        if sym in memo:
            return memo[sym]
        own = _module_of(files.get(sym), src_root)
        if own is not None:
            result = {own: 1.0}
        elif sym not in files:
            result = {"lib": 1.0}  # No debug info: the C/C++ runtime libraries.
        elif depth > 12 or not parents.get(sym):
            result = {"other": 1.0}
        else:
            memo[sym] = {"other": 1.0}  # Cycle guard while recursing.
            callers = parents[sym]
            total = sum(callers.values())
            result = {}
            for caller, calls in callers.items():
                sub = {"other": 1.0} if caller == _SPONTANEOUS else shares(caller, depth + 1)
                for module, frac in sub.items():
                    result[module] = result.get(module, 0.0) + frac * calls / total
        memo[sym] = result
        return result

    modules = {m: 0.0 for m in BUCKETS}
    for sym, secs in flat.items():
        for module, frac in shares(sym).items():
            modules[module] += secs * frac
    top = sorted(flat.items(), key=lambda kv: -kv[1])[:8]
    return {"modules": modules, "sampled_s": sum(flat.values()), "top": top}
