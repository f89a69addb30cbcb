#!/usr/bin/env python3
"""Profile the code koptnode runs and write bin/koptnode_hot.ld.

Run from the repository root, on an otherwise idle x86-64 Linux host:

    python3 bin/hot_text.py

koptnode is linked with bin/koptnode_hot.ld (bin/dune).  The script puts
every function a daemon runs into one output section, .text.hot, at the
start of the text segment: the functions only boot runs, then the other
CPUs' variants of the glibc ifuncs the loop calls, then a marker symbol
(koptnode_hot_loop_start), then the functions the loop runs.  The loop's
come last because ld places the .plt stubs, through which the loop calls
those ifuncs (memmove, memcmp, strlen, ...), right after .text.hot, and a
linker script cannot move them (ld fails: "overlapping FDEs"); so the
loop's last window holds them too.  They start at a 64 KB boundary, so
they span as few windows as their size allows (~5).  Fault-around maps the binary's pages
in 64 KB windows, so code the loop runs scattered among cold code keeps
nearly every window of the text resident; gathered, the loop's code
faults back in a few windows once boot has dropped the read-only pages
(koptnode_drop_read_only).

It names code one function at a time.  The repository is compiled with
-function-sections (the root dune file), and so are the OCaml standard
library, the Unix library and the runtime the toolchain installs, so
each function is an input section of its own:
- an OCaml function as *(.text.caml.<Module>.<name>_[0-9]*).  ocamlopt
  appends a stamp to every function's name that changes with every edit,
  so the stamp is a wildcard: the pattern survives renumbering, and the
  anonymous functions of a module (fun_<stamp>) are named once, together;
- a C function of the runtime or the Unix library as *(.text.<name>),
  the cold part GCC splits from it (<name>.cold) as
  *(.text.unlikely.<name>), a clone as *(.text.<name>.part.0);
- an object without a section per function whole: the members of libc,
  libm and libgcc, the runtime's amd64.o, the C start files and
  koptnode_runparam.o.
The section opens with every OCaml module's code_begin.  The runtime
registers OCaml's code as one fragment, from the lowest code_begin to the
highest code_end (Marshal's Closures flag looks code pointers up in it),
and the code_end markers stay in .text among the code no pattern names,
the last of them after all of it; so the fragment spans .text.hot and
.text and every OCaml function lies inside it (test_link checks this).

The script also gives the read-only data the loop reads a section of its
own, .rodata.hot, which opens the read-only data segment at a 64 KB
boundary: without it the tables the loop reads (the runtime's size
classes, Unix's flag tables, glibc's printf, _itoa and pthread_mutex
tables) lay scattered through .rodata and kept 3-4 of its windows
resident, and which ones moved as the text grew.  It takes the .rodata
and .rodata.* input sections of every object the loop runs code of: every
OCaml object, the runtime and the Unix library's C stubs whole
(HOT_RODATA), then the members the loop's part names whole (glibc's, the C
start files), then the members without code whose read-only data those
refer to (glibc's _itoa digits); ~35 KB, one window.  No profile of data
is taken: the profile of code names the objects.

Regenerate the script when a function on the loop's path is renamed or
added (its pattern then names nothing, or nothing names it), when a
change calls a function the daemon never called before, when the
toolchain changes (OCaml or glibc), or when a daemon's resident text
grows (perfbench's rss_mb, and test_net's bound on a booted daemon's
file-backed resident set).  A stale script still links: a pattern that
names nothing matches nothing, and code no pattern names is placed in
.text as usual.  test_link fails when fewer than 95% of the script's
function patterns match a function of the built koptnode, or when
.rodata.hot does not open its segment in one window with the runtime's
size classes and glibc's _itoa digits in it; CI fails when a function
section or member it names, in either section, is gone from the
toolchain's OCaml archives, or a member from glibc's of the release named
in the script's header.  The build never runs this script, and neither
does CI.

What it profiles.  It sets breakpoints (INT3) in the built koptnode.exe
and restores each one's byte the first time it is hit, so each costs one
stop.
- Boot, from exec to koptnode_drop_read_only: a daemon of a 3-node
  shardkv cluster whose peers are not running, once on a fresh store and
  once reopening the store the first left when it was SIGKILLed, with a
  breakpoint at the entry of every sized text symbol `nm -S` lists.  The
  drop itself counts as the loop's: code that runs after its madvise
  (dl_iterate_phdr, which calls it) faults its window back in.
- The loop: it attaches (PTRACE_SEIZE) to every daemon perfbench launches
  under a `/cluster/` directory, in untraced steady, burst and crash runs
  and in one traced steady run, whose Stats scrapes run the daemons'
  memory gauges, with a breakpoint at every instruction (objdump -d) of
  every function not yet seen in a loop.  A function is the loop's if any
  of its instructions runs, not only its entry: the loop enters code other
  than at its start.  main_loop, entered once before perfbench's attach,
  repeats by a jump inside itself; and at Quit the daemon returns into
  functions boot called (koptnode's module initialiser, caml_main).  Stops
  at function entries alone left main_loop and that return path in .text,
  which kept the window across .text.hot's end resident.  What a daemon
  attached during boot runs before koptnode_drop_read_only counts as
  boot.  The drop's madvise discards the pages the breakpoints were
  written to, so the loop's are set once it has returned, which a
  hardware breakpoint at its return address reports.
Each function hit is mapped to its input section: an OCaml function's is
.text.caml.<symbol>, and a C function's is read with `objdump -t` from the
archive member or object that defines it (a local name several members
define goes to the one most of whose symbols of that section sit at the
same distances from it in the binary as in the member, or, on a tie, to
all of them).  For a string or memory function that glibc selects by CPU
(an ifunc: memmove, strlen, ...), every variant of the family is named,
not only the one the profiling host ran, so that a daemon on another CPU
does not run code outside .text.hot; the host's variant goes in the
loop's part, the others just before it.

The breakpoints and the tracer slow a daemon's first run of each
instruction, so a profiled perfbench run may report failed timing checks;
the profile is kept either way.

x86-64 Linux only: it reads the registers with PTRACE_GETREGS and sets
the debug registers in the x86-64 layout, and the member names are those
of glibc's x86-64 build.
It must be allowed to ptrace the daemons: they run as the same user and
descend from this script, which Yama's ptrace_scope 0 and 1 both allow.
Run it in a checkout nothing else builds in: each perfbench run
rebuilds, and a rebuilt koptnode no longer has the symbols the
breakpoints were set from.
"""

import bisect
import ctypes
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
RUNS = [("steady", 911, 15, 0), ("burst", 912, 15, 0), ("crash", 913, 15, 0),
        ("steady", 914, 15, 1)]
# The symbol the script defines between boot's functions and the loop's.
MARKER = "koptnode_hot_loop_start"
# The C start files a static PIE links, and this repository's C object;
# none has a section per function, so each is named whole.
START_FILES = ["rcrt1.o", "crti.o", "crtn.o", "crtbeginS.o", "crtendS.o"]
REPO_C = ["_build/default/bin/koptnode_runparam.o"]
WHOLE = "(.text .text.*)"
# .rodata.hot takes the read-only data of these objects whole, whatever
# the profile: the loop runs code of each (this repository's libraries and
# koptnode's own objects, the OCaml standard library, Unix, std_exit and the
# startup object ocamlopt writes at each link, the runtime and the Unix
# library's C stubs), and they hold ~25 KB of read-only data in all.
HOT_RODATA = ["lib/*.a:", "*bin/*.o", "*/stdlib.a:", "*/unix.a:", "*/std_exit.o",
              "*/camlstartup*.o", "*/libasmrun.a:", "*/libunixnat.a:"]
RODATA = "(.rodata .rodata.*)"
# An instruction in objdump -d's listing: "   3000:\tpush ...".
INSN = re.compile(r"^ +([0-9a-f]+):\t")

PTRACE_TRACEME, PTRACE_POKEUSER, PTRACE_CONT = 0, 6, 7
PTRACE_GETREGS, PTRACE_SETREGS = 12, 13
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
RIP, RSP = 16, 19  # indices in struct user_regs_struct (x86-64)
DEBUGREG = 848  # offsetof(struct user, u_debugreg) (x86-64)

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
        for f in map(str.split, lines("nm", "-S", "--defined-only", path)):
            if len(f) != 4 or f[2] not in "tTwWi":
                continue
            addr, size = int(f[0], 16), int(f[1], 16)
            if size and self.in_text(addr):
                self.names.setdefault(addr, []).append(f[3])
                self.size[addr] = size
        self.addr = {n: a for a, ns in self.names.items() for n in ns}
        self.drop = self.addr[DROP]
        starts = sorted(self.names)
        # Every instruction of the text -> the function holding it (None
        # outside every sized symbol: _init, the linker's .plt stubs).
        self.owner = {}
        for line in lines("objdump", "-d", "--no-show-raw-insn", path):
            m = INSN.match(line)
            if m:
                a = int(m.group(1), 16)
                i = bisect.bisect_right(starts, a) - 1
                self.owner[a] = starts[i] if i >= 0 and a < starts[i] + self.size[starts[i]] else None

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
        self.returning = None  # the drop's return address, until it is reached


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
        """[pid] is stopped and traced: set a breakpoint at every function's
        entry if it is at its exec, at every instruction if it is a
        cluster daemon (attached, nearly always, once booted)."""
        p = Proc(pid, kind)
        p.base = self.base_of(pid)
        p.mem = open("/proc/%d/mem" % pid, "r+b", buffering=0)
        if kind == "cluster":
            self.arm_loop(p)
        else:
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
        """[p] has exited: what it ran past boot was the loop's; for a
        cluster daemon without a drop seen, all of it was.  Each
        instruction hit stands for the function holding it."""
        if p.booted or p.kind == "cluster":
            self.loop |= {self.bin.owner.get(a, a) for a in p.hits} - {None}
        p.mem.close()
        del self.procs[p.pid]

    def trap(self, p):
        regs = (ctypes.c_ulonglong * 27)()
        ptrace(PTRACE_GETREGS, p.pid, None, ctypes.byref(regs))
        if p.returning is not None and regs[RIP] - p.base == p.returning:
            ptrace(PTRACE_POKEUSER, p.pid, DEBUGREG + 7 * 8, 0)
            p.returning = None
            if p.kind == "cluster":
                self.arm_loop(p)
            return 0
        addr = regs[RIP] - 1 - p.base
        if addr not in p.armed:
            return signal.SIGTRAP
        self.poke(p, [addr], self.bin.byte)
        p.armed.discard(addr)
        regs[RIP] -= 1
        ptrace(PTRACE_SETREGS, p.pid, None, ctypes.byref(regs))
        p.hits.add(addr)
        if addr == self.bin.drop and not p.booted:
            self.end_boot(p, regs)
        return 0

    def end_boot(self, p, regs):
        """[p] is at the drop's entry: what it ran so far was boot's, and
        what it runs from here on is the loop's, the drop included.  Its
        madvise discards the pages the breakpoints were written to, and
        code that runs after it faults its window back in (dl_iterate_phdr,
        which calls the madvise, returns into its own dropped page), so
        the entries boot ran are set again, for the code the drop runs
        before its madvise; the loop's breakpoints are set once the drop
        has returned, which a hardware breakpoint (DR0, enabled in DR7) at
        its return address reports, since no page drop discards it."""
        p.booted = True
        ran = {self.bin.owner.get(a, a) for a in p.hits} - {None}
        self.boot |= ran
        p.hits = {self.bin.drop}
        self.arm(p, ran - {self.bin.drop})
        p.mem.seek(regs[RSP])
        p.returning = struct.unpack("<Q", p.mem.read(8))[0] - p.base
        ptrace(PTRACE_POKEUSER, p.pid, DEBUGREG, p.base + p.returning)
        ptrace(PTRACE_POKEUSER, p.pid, DEBUGREG + 7 * 8, 1)

    def arm_loop(self, p):
        """Set a breakpoint at every instruction of every function not yet
        seen in a loop (and at the drop's entry until it is hit).  The loop
        enters some code other than at its start: main_loop, entered once
        before the drop, repeats by a jump inside itself, and a function
        called before the drop returns into its middle."""
        vaddr, data = self.bin.text
        image = bytearray(data)
        armed = set()
        for a, f in self.bin.owner.items():
            if not p.booted if a == self.bin.drop else f not in self.loop:
                image[a - vaddr] = 0xCC
                armed.add(a)
        p.mem.seek(p.base + vaddr)
        p.mem.write(bytes(image))
        p.armed = armed

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
                try:
                    sig = self.trap(p)
                except OSError:  # SIGKILLed while stopped (the crash runs)
                    sig = 0
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
    """One daemon traced from exec until the drop has returned, then
    SIGKILLed."""
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
    while ((not p.booted or p.returning is not None) and pid in tracer.procs
           and time.monotonic() < deadline):
        if not tracer.step():
            time.sleep(0.0002)
    os.kill(pid, signal.SIGKILL)
    while pid in tracer.procs:
        tracer.step()
    if not p.booted:
        sys.exit("hot_text: the traced daemon never reached %s" % DROP)


# ------------------------------------------------------------------------
# Symbols to input sections

def ocaml_where():
    return lines("ocamlopt", "-where")[0]


def ocaml_version():
    return lines("ocamlopt", "-version")[0]


def resolve_archive(path):
    """An archive, or the archives a GNU ld script such as libm.a groups."""
    with open(path, "rb") as f:
        if f.read(8) == b"!<arch>\n":
            return [path]
    text = open(path).read()
    return [a for a in re.findall(r"(/\S+\.a)\b", text) if "libmvec" not in a]


def toolchain_objects():
    """The toolchain's archives and objects that koptnode links C code from:
    the runtime, the Unix library's stubs, libc, libm, libgcc and the C
    start files.  (The OCaml code of any library is named by its symbol.)"""
    where = ocaml_where()
    objects = [os.path.join(where, "libunixnat.a"), os.path.join(where, "libasmrun.a")]
    for lib in ("libc.a", "libm.a", "libgcc.a", "libgcc_eh.a"):
        path = lines("gcc", "-print-file-name=" + lib)[0]
        if os.path.isabs(path):
            objects += resolve_archive(os.path.realpath(path))
    for start in START_FILES:
        path = lines("gcc", "-print-file-name=" + start)[0]
        if os.path.isabs(path):
            objects.append(os.path.realpath(path))
    return objects + REPO_C


# objdump -t: value, flags (7 columns), section, size, name.
SYMBOL = re.compile(r"^([0-9a-f]+) (.{7}) (\S+)\t([0-9a-f]+) (?:\.hidden |\.protected |\.internal )?(\S+)$")
FORMAT = re.compile(r"^(\S+):\s+file format ")


class Objects:
    """The text symbols each C object defines, with the input section each
    lies in; the symbols each refers to; and which object defines each
    global read-only datum."""

    def __init__(self, files):
        self.defs = {}  # name -> [(file, member, section, offset, size)]
        self.syms = {}  # (file, member) -> [(name, section, offset)]
        self.ifuncs = set()  # (file, member) defining an ifunc
        self.members = {}  # archive -> member names
        self.undefined = {}  # (file, member) -> names it refers to
        self.rodata = {}  # global name in a .rodata section -> (file, member)
        for f in files:
            archive = f.endswith(".a")
            if archive:
                self.members[f] = lines("ar", "t", f)
            member = None
            for line in lines("objdump", "-t", f):
                m = FORMAT.match(line)
                if m:
                    member = m.group(1) if archive else None
                    continue
                m = SYMBOL.match(line)
                if not m:
                    continue
                offset, flags, section, size, name = m.groups()
                fm = (f, member)
                if section == "*UND*":
                    self.undefined.setdefault(fm, set()).add(name)
                elif section.startswith(".rodata") and flags[0] in "gu":
                    self.rodata.setdefault(name, fm)
                if not section.startswith(".text") or flags[5] in "dD" or flags[6] == "f":
                    continue
                offset, size = int(offset, 16), int(size, 16)
                self.defs.setdefault(name, []).append((*fm, section, offset, size))
                self.syms.setdefault(fm, []).append((name, section, offset))
                if flags[4] == "i":
                    self.ifuncs.add(fm)

    def defs_of(self, binary, addr):
        """The definitions the function at [addr] may come from.  When several
        objects define a local function of that name and size, the one with
        the most other symbols of the same section that the binary places at
        the distance from [addr] they have in the object; all of them on a
        tie (the .cold part of a function can look alike in several)."""
        names = binary.names[addr]
        cands = {d[:3]: d[3] for name in names for d in self.defs.get(name, [])
                 if d[4] in (0, binary.size[addr])}
        if len(cands) <= 1:
            return set(cands)
        score = {d: sum(n not in names and s == d[2] and n in binary.names.get(addr + o - off, ())
                        for n, s, o in self.syms[d[:2]])
                 for d, off in cands.items()}
        best = [d for d in cands if score[d] == max(score.values())]
        return set(best) if len(best) == 1 else set(cands)

    def data_only(self, placed):
        """The objects without code of their own whose read-only data the
        objects [placed] refer to: glibc keeps _itoa's digit tables in
        members of their own (itoa-digits.o), which no profile of code can
        name."""
        return {self.rodata[n] for fm in placed for n in self.undefined.get(fm, ())
                if n in self.rodata and self.rodata[n] not in self.syms}

    def variants(self, archive, member):
        """Every member of the ifunc family [member] belongs to."""
        family = member.split("-")[0]
        if family == member or (archive, family + ".o") not in self.ifuncs:
            return [member]
        return [m for m in self.members[archive] if m.startswith(family + "-") or m == family + ".o"]


# ------------------------------------------------------------------------
# The script

def object_glob(path, member):
    """The file pattern for an object: a toolchain archive by its name,
    with a version number (libm-2.36.a) as a wildcard, under any
    directory; a start file by its name; this repository's by its path
    relative to _build/default, where the link runs."""
    if path in REPO_C:
        return "*" + os.path.relpath(path, "_build/default")
    name = "*/" + re.sub(r"-[0-9.]+\.a$", "-*.a", os.path.basename(path))
    return name + ":" + member if member else name


def stamp_glob(section):
    """An OCaml function's section with its name's stamp as a wildcard:
    .text.caml.camlM.name_123 -> .text.caml.camlM.name_[0-9]*."""
    return re.sub(r"_[0-9]+$", "_[0-9]*", section)


def per_function(name, section):
    """[section] holds [name] alone (-ffunction-sections): .text.<name>, or
    .text.unlikely.<name> for its cold part <name>.cold."""
    base = name[:-len(".cold")] if name.endswith(".cold") else name
    return section in (".text." + base, ".text.unlikely." + base, ".text.startup." + base)


def patterns(binary, objects, addrs):
    """The input-section patterns that place the functions at [addrs]; the
    members of the glibc ifunc families among them that this host did not
    select, for other CPUs; and the names no object defines that are not
    OCaml's."""
    found, unknown, whole = set(), set(), set()
    for a in addrs:
        defs = objects.defs_of(binary, a)
        if not defs:
            name = binary.names[a][0]
            if name.startswith("caml"):  # OCaml code: its section is .text.caml.<symbol>
                found.add((0, "*(%s)" % stamp_glob(".text.caml." + name)))
            else:
                unknown.add(name)
        for path, member, section in defs:
            if any(per_function(n, section) for n in binary.names[a]):
                found.add((1, "*(%s)" % section))
            else:
                whole.add((path, member))
                found |= {(2 if v == member else 3, "%s%s" % (object_glob(path, v), WHOLE))
                          for v in (objects.variants(path, member) if member else [None])}
    placed = [p for k, p in sorted(found) if k < 3]
    variants = [p for k, p in sorted(found) if k == 3 and p not in set(placed)]
    return placed, variants, unknown, whole


def rodata_section(objects, whole):
    """The lines that put the read-only data of the objects the loop runs
    code of into .rodata.hot, at the start of the read-only data segment:
    every OCaml object, the runtime and the Unix library's C stubs
    (HOT_RODATA), then the objects the profile placed whole in the loop's
    part that those do not cover (glibc's members, the C start files),
    then the members without code whose read-only data those refer to.
    INSERT BEFORE .rodata puts the section after the default script's
    start of the read-only data segment, so the section opens it; its own
    alignment puts that start at a fault-around window's."""
    where = ocaml_where()
    c_objects = {fm for fm in whole if fm[0] not in REPO_C and not fm[0].startswith(where)}
    named = sorted(c_objects) + sorted(objects.data_only(c_objects) - c_objects)
    return (["SECTIONS",
             "{",
             "  /* The read-only data of the objects the loop runs code of, in one",
             "     fault-around window at the start of the read-only data segment. */",
             "  . = ALIGN(0x10000);",
             "  .rodata.hot :",
             "  {"]
            + ["    %s%s" % (p, RODATA) for p in HOT_RODATA]
            + ["    %s%s" % (object_glob(path, member), RODATA) for path, member in named]
            + ["  }", "}", "INSERT BEFORE .rodata;", ""])


# INSERT BEFORE .init places .text.hot ahead of the default script's page
# alignment of the text segment, so the script aligns it itself; without
# that the section would join the read-only segment of the ELF headers.
# The loop's part comes last, next to the .plt stubs ld puts after it.
def write_script(binary, objects, tracer):
    loop, others, _, whole = patterns(binary, objects, tracer.loop)
    boot, boot_others, unknown, _ = patterns(binary, objects, tracer.boot - tracer.loop)
    rodata = rodata_section(objects, whole)
    others = [p for p in others if p not in set(loop)]
    boot = [p for p in boot + boot_others if p not in set(loop + others)]
    glibc = lines("ldd", "--version")[0].split()[-1]
    out = ["/* koptnode's hot text (see bin/dune).  Written by bin/hot_text.py from a",
           "   profile of boot and of perfbench's steady, burst and crash runs; do not",
           "   edit by hand.  OCaml %s, glibc %s, x86-64." % (ocaml_version(), glibc),
           "",
           "   %d loop functions and %d boot-only ones were hit; they are named by"
           % (len(tracer.loop), len(tracer.boot - tracer.loop)),
           "   %d patterns: %d for the loop, %d for other CPUs' variants of its ifuncs"
           % (len(loop) + len(others) + len(boot), len(loop), len(others)),
           "   and %d only for boot; .rodata.hot is named by %d more. */"
           % (len(boot), sum(l.endswith(RODATA) for l in rodata)),
           "SECTIONS",
           "{",
           "  . = ALIGN(CONSTANT (MAXPAGESIZE));",
           "  .text.hot :",
           "  {",
           "    /* Every OCaml module's code_begin, so the code fragment the runtime",
           "       registers still starts below every OCaml function. */",
           "    *(.text.caml.*.code_begin)",
           "    /* Boot only: from exec to koptnode_drop_read_only, not after. */"]
    out += ["    " + p for p in boot]
    out += ["    /* The other CPUs' variants of the ifunc families the loop runs, just",
            "       before it, so that on another CPU they fault a window or two more. */"]
    out += ["    " + p for p in others]
    out += ["    /* The loop, last, from a fault-around window's start, so that it spans",
            "       as few windows as its size allows; the last also holds the .plt. */",
            "    . = ALIGN(0x10000);",
            "    %s = .;" % MARKER]
    out += ["    " + p for p in loop]
    out += ["  }", "}", "INSERT BEFORE .init;", ""] + rodata
    with open(OUT, "w") as f:
        f.write("\n".join(out))
    log("wrote %s: %d loop, %d variant and %d boot-only patterns"
        % (OUT, len(loop), len(others), len(boot)))
    if unknown:
        log("in no object: " + " ".join(sorted(unknown)))


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
    write_script(binary, Objects(toolchain_objects()), tracer)


if __name__ == "__main__":
    main()
