#!/usr/bin/env python3
"""Profile the code koptnode runs and write bin/koptnode_hot.ld.

Run from the repository root, on an otherwise idle x86-64 Linux host:

    python3 bin/hot_text.py

koptnode is linked with bin/koptnode_hot.ld (bin/dune).  The script puts
every input object whose code a daemon runs into one output section,
.text.hot, at the start of the text segment: the objects the loop runs,
then those only boot runs.  Fault-around maps the
binary's pages in 64 KB windows, so code the loop runs scattered among
cold code keeps nearly every window of the text resident; gathered, the
loop's code faults back in a few windows once boot has dropped the
read-only pages (koptnode_drop_read_only).  Each object is named whole:
every object koptnode links from this repository's libraries, koptnode's
own objects and the OCaml startup code, and, from the toolchain's
archives (the OCaml standard library, the Unix library, the runtime,
libc, libm), each member that holds a function a daemon ran.

Regenerate the script when a change adds a call to a function of the
toolchain the daemon never called before (a new libc or stdlib function
on the loop's path), when the toolchain changes (OCaml or glibc; CI fails
when a member the script names is gone from OCaml's archives, or from
glibc's of the release named in the script's header), or when a daemon's
resident text grows (perfbench's rss_mb, and test_net's
bound on a booted daemon's file-backed resident set).  A stale script
still links: a pattern that names a member koptnode no longer links
matches nothing, and code it does not name is placed in .text as usual.
The build never runs this script, and neither does CI.

What it profiles.  It sets a breakpoint (INT3) at the entry of every
sized text symbol `nm -S` lists for the built koptnode.exe, and restores a
symbol's byte the first time it is hit, so each function costs one stop.
- Boot, from exec to koptnode_drop_read_only: a daemon of a 3-node
  shardkv cluster whose peers are not running, once on a fresh store and
  once reopening the store the first left when it was SIGKILLed.
- The loop: it attaches (PTRACE_SEIZE) to every daemon perfbench launches
  under a `/cluster/` directory, in untraced steady, burst and crash runs
  and in one traced steady run, whose Stats scrapes run the daemons'
  memory gauges.  What a daemon attached during boot runs before
  koptnode_drop_read_only counts as boot; the breakpoints boot hit are then
  set again.
Each hit symbol is mapped to the archive member that defines it with
`nm -A` (a local name several members define goes to the one most of
whose symbols sit at the same distances from it in the binary as in the
member, or, on a tie, to all of them).  For a string or memory function that glibc
selects by CPU (an ifunc: memmove, strlen, ...), every variant of the
family is named, not only the one the profiling host ran, so that a
daemon on another CPU does not run code outside .text.hot.

The breakpoints and the tracer slow a daemon's first call of each
function, so a profiled perfbench run may report failed timing checks;
the profile is kept either way.

x86-64 Linux only: it reads the registers with PTRACE_GETREGS in the
x86-64 layout, and the member names are those of glibc's x86-64 build.
It must be allowed to ptrace the daemons: they run as the same user and
descend from this script, which Yama's ptrace_scope 0 and 1 both allow.
Run it in a checkout nothing else builds in: each perfbench run
rebuilds, and a rebuilt koptnode no longer has the symbols the
breakpoints were set from.
"""

import ctypes
import glob
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time

EXE = "_build/default/bin/koptnode.exe"
OUT = "bin/koptnode_hot.ld"
DROP = "koptnode_drop_read_only"
# perfbench runs: (workload, seed, seconds, traced).  Seeds apart from the
# ones the benchmark's comparisons use.
RUNS = [("steady", 901, 15, 0), ("burst", 902, 15, 0), ("crash", 903, 15, 0),
        ("steady", 904, 15, 1)]
# The objects taken whole, as linker-script file patterns.
WHOLE = ["*bin/.koptnode.eobjs/native/dune__exe__Koptnode.o", "*bin/koptnode_runparam.o",
         "*camlstartup*.o", "*/std_exit.o"]
SECTIONS = "(.text .text.*)"

PTRACE_TRACEME, PTRACE_CONT = 0, 7
PTRACE_GETREGS, PTRACE_SETREGS = 12, 13
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
RIP = 16  # index of rip in struct user_regs_struct (x86-64)

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, pid, addr=None, data=None):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, "ptrace(%d, %d): %s" % (req, pid, os.strerror(err)))


def lines(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()


def log(msg):
    print("hot_text: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------------
# The binary

class Binary:
    """The text symbols of koptnode.exe and the bytes under them."""

    def __init__(self, path):
        self.path = os.path.realpath(path)
        elf = open(path, "rb").read()
        phoff, = struct.unpack_from("<Q", elf, 32)
        phentsize, phnum = struct.unpack_from("<HH", elf, 54)
        self.text = None
        for i in range(phnum):
            p_type, flags, offset, vaddr, _, filesz, _ = struct.unpack_from(
                "<IIQQQQQ", elf, phoff + i * phentsize)
            if p_type == 1 and flags & 1:
                self.text = (vaddr, elf[offset:offset + filesz])
        self.names = {}  # address -> names
        self.size = {}  # address -> size
        self.modules = set()  # the OCaml modules linked, as caml<Module>
        for f in map(str.split, lines("nm", "-S", "--defined-only", path)):
            if f[-1].endswith(".code_begin"):
                self.modules.add(f[-1][:-len(".code_begin")])
            if len(f) != 4 or f[2] not in "tTwWi":
                continue
            addr, size = int(f[0], 16), int(f[1], 16)
            if size and self.in_text(addr):
                self.names.setdefault(addr, []).append(f[3])
                self.size[addr] = size
        self.addr = {n: a for a, ns in self.names.items() for n in ns}
        self.drop = self.addr[DROP]

    def in_text(self, addr):
        vaddr, data = self.text
        return vaddr <= addr < vaddr + len(data)

    def byte(self, addr):
        vaddr, data = self.text
        return data[addr - vaddr]


# ------------------------------------------------------------------------
# The tracer

class Proc:
    def __init__(self, pid, kind):
        self.pid, self.kind = pid, kind
        self.base = None
        self.mem = None
        self.armed = set()
        self.hits = set()  # since the last phase change
        self.booted = False  # koptnode_drop_read_only was hit


class Tracer:
    def __init__(self, binary):
        self.bin = binary
        self.procs = {}
        self.boot, self.loop = set(), set()

    def base_of(self, pid):
        for line in open("/proc/%d/maps" % pid):
            f = line.split()
            if len(f) >= 6 and f[5] == self.bin.path and int(f[2], 16) == 0:
                return int(f[0].split("-")[0], 16)
        raise RuntimeError("pid %d does not map %s" % (pid, self.bin.path))

    def poke(self, p, addrs, byte_of):
        for a in addrs:
            p.mem.seek(p.base + a)
            p.mem.write(bytes([byte_of(a)]))

    def arm(self, p, addrs):
        self.poke(p, addrs, lambda a: 0xCC)
        p.armed |= set(addrs)

    def start(self, pid, kind):
        """[pid] is stopped and traced: set every breakpoint."""
        p = Proc(pid, kind)
        p.base = self.base_of(pid)
        p.mem = open("/proc/%d/mem" % pid, "r+b", buffering=0)
        self.arm(p, self.bin.names)
        self.procs[pid] = p
        ptrace(PTRACE_CONT, pid)
        return p

    def attach(self, pid):
        try:
            ptrace(PTRACE_SEIZE, pid)
            ptrace(PTRACE_INTERRUPT, pid)
            _, st = os.waitpid(pid, WALL)
        except (OSError, ChildProcessError):
            return
        if os.WIFSTOPPED(st):
            try:
                self.start(pid, "cluster")
            except (OSError, RuntimeError):
                pass

    def finish(self, p):
        """[p] has exited: what it ran past boot was the loop's if it is a
        cluster daemon; without a drop seen, all of it was."""
        if p.kind == "cluster":
            self.loop |= p.hits
        p.mem.close()
        del self.procs[p.pid]

    def trap(self, p):
        regs = (ctypes.c_ulonglong * 27)()
        ptrace(PTRACE_GETREGS, p.pid, None, ctypes.byref(regs))
        addr = regs[RIP] - 1 - p.base
        if addr not in p.armed:
            return signal.SIGTRAP
        self.poke(p, [addr], self.bin.byte)
        p.armed.discard(addr)
        regs[RIP] -= 1
        ptrace(PTRACE_SETREGS, p.pid, None, ctypes.byref(regs))
        p.hits.add(addr)
        if addr == self.bin.drop and not p.booted:
            p.booted = True
            self.boot |= p.hits
            again = p.hits - {addr}
            p.hits = set()
            self.arm(p, again)
        return 0

    def step(self):
        """Take every pending stop; false when there was none."""
        progress = False
        for pid in list(self.procs):
            p = self.procs[pid]
            try:
                r, st = os.waitpid(pid, os.WNOHANG | WALL)
            except ChildProcessError:
                self.finish(p)
                continue
            if r == 0:
                continue
            progress = True
            if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                self.finish(p)
                continue
            sig = os.WSTOPSIG(st)
            if st >> 16 == PTRACE_EVENT_STOP:
                sig = 0
            elif sig == signal.SIGTRAP:
                sig = self.trap(p)
            try:
                ptrace(PTRACE_CONT, pid, None, sig)
            except OSError:
                pass
        return progress


def cluster_daemons(tracer, seen):
    """Pids of koptnode daemons under a /cluster/ directory not yet traced.
    A pid whose command is something else is looked at for 50 ms: a
    forked child shows its parent's command until it execs."""
    now = time.monotonic()
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        pid = int(d)
        if pid in tracer.procs or now - seen.setdefault(pid, now) > 0.05:
            continue
        try:
            cmd = open("/proc/%d/cmdline" % pid, "rb").read().split(b"\0")
        except OSError:
            continue
        if cmd and cmd[0].endswith(b"/koptnode.exe") and any(b"/cluster/" in a for a in cmd):
            seen[pid] = float("-inf")
            found.append(pid)
    return found


def profile_run(tracer, workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    log("profiling " + " ".join(argv[1:]))
    report = tempfile.TemporaryFile(mode="w+")
    bench = subprocess.Popen(argv, stdout=report, stderr=subprocess.DEVNULL, text=True)
    seen = {}
    last_scan = 0.
    while bench.poll() is None or tracer.procs:
        if time.monotonic() - last_scan > 0.002:
            for pid in cluster_daemons(tracer, seen):
                tracer.attach(pid)
            last_scan = time.monotonic()
        if not tracer.step():
            time.sleep(0.0002)
    report.seek(0)
    result = report.read().splitlines()
    log("  exit %d: %s" % (bench.returncode, result[-1] if result else "(no output)"))


def free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def profile_boot(tracer, store):
    """One daemon traced from exec to the end of boot, then SIGKILLed."""
    listen, control, p1, p2 = free_ports(4)
    argv = [tracer.bin.path, "--pid", "0", "--nodes", "3", "--app", "shardkv",
            "--optimism", "1", "--listen", str(listen), "--control", str(control),
            "--peers", "1:%d,2:%d" % (p1, p2), "--store-dir", os.path.join(store, "p0"),
            "--trace-file", os.path.join(store, "trace-0.bin"),
            "--metrics-file", os.path.join(store, "metrics-0.bin"),
            "--epoch", "%.6f" % time.time()]
    pid = os.fork()
    if pid == 0:
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        libc.ptrace(PTRACE_TRACEME, 0, None, None)
        os.execv(argv[0], argv)
    os.waitpid(pid, 0)  # the stop at exec
    p = tracer.start(pid, "boot")
    deadline = time.monotonic() + 30
    while not p.booted and pid in tracer.procs and time.monotonic() < deadline:
        if not tracer.step():
            time.sleep(0.0002)
    os.kill(pid, signal.SIGKILL)
    while pid in tracer.procs:
        tracer.step()
    if not p.booted:
        sys.exit("hot_text: the traced daemon never reached %s" % DROP)


# ------------------------------------------------------------------------
# Symbols to archive members

def ocaml_where():
    return lines("ocamlopt", "-where")[0]


def resolve_archive(path):
    """An archive, or the archives a GNU ld script such as libm.a groups."""
    with open(path, "rb") as f:
        if f.read(8) == b"!<arch>\n":
            return [path]
    text = open(path).read()
    return [a for a in re.findall(r"(/\S+\.a)\b", text) if "libmvec" not in a]


def toolchain_archives():
    where = ocaml_where()
    archives = [os.path.join(where, "stdlib.a"), os.path.join(where, "unix", "unix.a"),
                os.path.join(where, "libunixnat.a"), os.path.join(where, "libasmrun.a")]
    for lib in ("libc.a", "libm.a", "libgcc.a", "libgcc_eh.a"):
        path = lines("gcc", "-print-file-name=" + lib)[0]
        if os.path.isabs(path):
            archives += resolve_archive(os.path.realpath(path))
    return archives


NM_A = re.compile(r"^(.*\.a):([^:]+):([0-9a-f]+)\s+(?:([0-9a-f]+)\s+)?(\S)\s+(\S+)$")


class Members:
    """The text symbols each toolchain archive member defines."""

    def __init__(self, archives):
        self.defs = {}  # name -> [(archive, member, offset, size)]
        self.syms = {}  # (archive, member) -> [(name, offset)]
        self.ifuncs = set()  # (archive, member) defining an ifunc
        self.members = {}  # archive -> member names
        for a in archives:
            self.members[a] = lines("ar", "t", a)
            out = subprocess.run(["nm", "-A", "-S", "--defined-only", a], capture_output=True,
                                 text=True).stdout
            for line in out.splitlines():
                m = NM_A.match(line)
                if not m or m.group(5) not in "tTwWi":
                    continue
                am, name, typ = (a, m.group(2)), m.group(6), m.group(5)
                offset, size = int(m.group(3), 16), int(m.group(4) or "0", 16)
                self.defs.setdefault(name, []).append((*am, offset, size))
                self.syms.setdefault(am, []).append((name, offset))
                if typ == "i":
                    self.ifuncs.add(am)

    def members_of(self, binary, addr):
        """The members that may define the function at [addr].  When several
        define a local function of that name and size, the one with the
        most other symbols that the binary places at the distance from
        [addr] they have in the member; all of them on a tie (the .cold
        part of a function can look alike in several)."""
        names = binary.names[addr]
        cands = {(a, m): off for name in names for a, m, off, size in self.defs.get(name, [])
                 if size in (0, binary.size[addr])}
        if len(cands) <= 1:
            return set(cands)
        score = {am: sum(n not in names and n in binary.names.get(addr + o - off, ())
                         for n, o in self.syms[am])
                 for am, off in cands.items()}
        best = [am for am in cands if score[am] == max(score.values())]
        return set(best) if len(best) == 1 else set(cands)

    def variants(self, archive, member):
        """Every member of the ifunc family [member] belongs to."""
        family = member.split("-")[0]
        if family == member or (archive, family + ".o") not in self.ifuncs:
            return [member]
        return [m for m in self.members[archive] if m.startswith(family + "-") or m == family + ".o"]


# ------------------------------------------------------------------------
# The script

def archive_glob(path):
    """The file pattern for a toolchain archive: its name, with a version
    number (libm-2.36.a) as a wildcard, under any directory."""
    return "*/" + re.sub(r"-[0-9.]+\.a$", "-*.a", os.path.basename(path))


def repo_archives(binary):
    """This repository's libraries koptnode links a module of, as the
    linker names them (relative to _build/default)."""
    linked = {m.split("__")[0] for m in binary.modules}
    return sorted(os.path.relpath(a, "_build/default") for a in glob.glob("_build/default/lib/*/*.a")
                  if "caml" + os.path.basename(a)[:-2].capitalize() in linked)


def placed(binary, members, addrs):
    """Toolchain members holding [addrs], in archive and name order, and
    the names no archive defines (this repository's, the startup code's,
    the C start files')."""
    found, unknown = set(), set()
    for a in addrs:
        ams = members.members_of(binary, a)
        if not ams:
            unknown.add(binary.names[a][0])
        for archive, member in ams:
            found |= {(archive, v) for v in members.variants(archive, member)}
    order = {a: i for i, a in enumerate(members.members)}
    return sorted(found, key=lambda am: (order[am[0]], am[1])), unknown


# INSERT BEFORE .init places .text.hot ahead of the default script's page
# alignment of the text segment, so the script aligns it itself; without
# that the section would join the read-only segment of the ELF headers.
def write_script(binary, members, tracer):
    loop, _ = placed(binary, members, tracer.loop)
    boot, unknown = placed(binary, members, tracer.boot - tracer.loop)
    boot = [am for am in boot if am not in set(loop)]
    glibc = lines("ldd", "--version")[0].split()[-1]
    out = ["/* koptnode's hot text (see bin/dune).  Written by bin/hot_text.py from a",
           "   profile of boot and of perfbench's steady, burst and crash runs; do not",
           "   edit by hand.  OCaml %s, glibc %s, x86-64." % (ocaml_version(), glibc),
           "",
           "   %d loop functions and %d boot-only ones were hit; %d toolchain members"
           % (len(tracer.loop), len(tracer.boot - tracer.loop), len(loop) + len(boot)),
           "   are named, %d of them only for boot. */" % len(boot),
           "SECTIONS",
           "{",
           "  . = ALIGN(CONSTANT (MAXPAGESIZE));",
           "  .text.hot :",
           "  {",
           "    /* The loop. */"]
    out += ["    *%s:*%s" % (a, SECTIONS) for a in repo_archives(binary)]
    out += ["    %s%s" % (w, SECTIONS) for w in WHOLE]
    out += ["    %s:%s%s" % (archive_glob(a), m, SECTIONS) for a, m in loop]
    out += ["    /* Boot only: from exec to koptnode_drop_read_only, not after. */"]
    out += ["    %s:%s%s" % (archive_glob(a), m, SECTIONS) for a, m in boot]
    out += ["  }", "}", "INSERT BEFORE .init;", ""]
    with open(OUT, "w") as f:
        f.write("\n".join(out))
    log("wrote %s: %d loop and %d boot-only members" % (OUT, len(loop), len(boot)))
    others = sorted(n for n in unknown if not n.startswith("caml"))
    if others:
        log("in no toolchain archive (start files, this repository's C): " + " ".join(others))


def ocaml_version():
    return lines("ocamlopt", "-version")[0]


def main():
    if not os.path.exists("perfbench/run.py"):
        sys.exit("hot_text: run from the repository root")
    subprocess.run(["dune", "build", "--root", ".", "./bin/koptnode.exe",
                    "./perfbench/bench.exe"], check=True)
    binary = Binary(EXE)
    tracer = Tracer(binary)
    with tempfile.TemporaryDirectory(prefix="hot_text.") as store:
        log("profiling boot on a fresh store")
        profile_boot(tracer, store)
        log("profiling boot on a reopened store")
        profile_boot(tracer, store)
    for run in RUNS:
        profile_run(tracer, *run)
    write_script(binary, Members(toolchain_archives()), tracer)


if __name__ == "__main__":
    main()
