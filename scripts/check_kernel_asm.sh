#!/usr/bin/env bash
# Checks the machine code of the bm-tensor kernels in the release build.
#
# Every kernel below is plain Rust that LLVM has to vectorise; whether
# it did is invisible to every test (a scalar build computes the same
# bits) and has regressed silently before, so it is checked here:
#
# - GEMM register-tile kernels (crates/tensor/src/gemm.rs, 4 row heights
#   x 3 ISA tiers): no gather, no scalar multiply, and, on the AVX2 and
#   AVX-512F tiers, no store to the stack inside a k loop (the
#   accumulators stay in registers; the SSE2 baseline's 16 registers do
#   not hold a 3- or 4-row tile, a spill accepted in PR 15 because no
#   deployment host lacks AVX2).
# - Fused gate kernels (crates/tensor/src/gates.rs, 3 ISA tiers): no
#   reference to libm's exp/tanh, and packed arithmetic at the tier's
#   full width (zmm under AVX-512F, ymm under AVX2).
# - Seeded weight fill (crates/tensor/src/init.rs, AVX-512 tier): every
#   loop multiplies eight 64-bit lanes at once (`vpmullq` on zmm) and
#   none has a scalar `imul`; a scalar build draws the same weights 5x
#   slower.
#
# Run after any edit to those files and after a toolchain bump. x86-64
# only: the tiers are `#[cfg(target_arch = "x86_64")]`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(uname -m)" != "x86_64" ]; then
    echo "check_kernel_asm: skipped, not an x86_64 host"
    exit 0
fi

cargo build --release --offline -p bm-harness --bin repro
dump="$(mktemp)"
trap 'rm -f "$dump"' EXIT
objdump -d --no-show-raw-insn -C target/release/repro > "$dump"

python3 - "$dump" <<'PY'
import re
import sys

# symbol -> [(address, mnemonic, operands)]
symbols = {}
current = None
head = re.compile(r'^[0-9a-f]+ <(.+)>:$')
insn = re.compile(r'^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$')
for line in open(sys.argv[1]):
    line = line.rstrip('\n')
    m = head.match(line)
    if m:
        current = symbols.setdefault(m.group(1), [])
        continue
    m = insn.match(line)
    if m and current is not None:
        current.append((int(m.group(1), 16), m.group(2), m.group(3)))

failures = []


def body(name):
    if name not in symbols:
        failures.append(f'{name}: symbol not found (renamed, or inlined away?)')
        return []
    return symbols[name]


def inner_loops(code):
    """Innermost loops: a jump back to a target inside the symbol with no
    other such loop nested in it."""
    if not code:
        return []
    lo, hi = code[0][0], code[-1][0]
    spans = []
    for addr, op, args in code:
        m = re.match(r'^([0-9a-f]+)\b', args)
        if op.startswith('j') and m:
            target = int(m.group(1), 16)
            if lo <= target <= addr <= hi:
                spans.append((target, addr))
    inner = [s for s in spans
             if not any(o != s and s[0] <= o[0] and o[1] <= s[1] for o in spans)]
    return [[i for i in code if a <= i[0] <= b] for a, b in inner]


stack_store = re.compile(r',\s*-?(0x[0-9a-f]+)?\(%r[sb]p(,[^)]*)?\)$')

# --- GEMM: `gemm_block` holds the inlined baseline tier. ---
for name, spills_allowed in (('bm_tensor::gemm::gemm_block', True),
                             ('bm_tensor::gemm::gemm_block_avx2', False),
                             ('bm_tensor::gemm::gemm_block_avx512', False)):
    code = body(name)
    for addr, op, args in code:
        if 'gather' in op:
            failures.append(f'{name}: {op} at {addr:x} (SLP turned a tile into gathers)')
        if op in ('mulss', 'vmulss'):
            failures.append(f'{name}: scalar {op} at {addr:x}')
    k_loops = [l for l in inner_loops(code)
               if any(op in ('mulps', 'vmulps') for _, op, _ in l)]
    if code and len(k_loops) < 4:
        failures.append(f'{name}: {len(k_loops)} k loops with a packed multiply, expected one '
                        'per row height (4)')
    for loop in ([] if spills_allowed else k_loops):
        for addr, op, args in loop:
            if 'mov' in op and stack_store.search(args):
                failures.append(f'{name}: stack store inside a k loop at {addr:x}: {op} {args}')
    print(f'{name}: {len(k_loops)} k loops checked')

# --- Gates: `run` holds the inlined baseline tier. ---
libm = re.compile(r'<(expf?|tanhf?)[@>]')
for name, reg in (('bm_tensor::gates::run', 'xmm'),
                  ('bm_tensor::gates::run_avx2', 'ymm'),
                  ('bm_tensor::gates::run_avx512', 'zmm')):
    code = body(name)
    for addr, op, args in code:
        if libm.search(args):
            failures.append(f'{name}: libm reference at {addr:x}: {op} {args}')
    for want in ('mulps', 'addps', 'divps'):
        n = sum(1 for _, op, args in code if op.lstrip('v') == want and reg in args)
        if code and n == 0:
            failures.append(f'{name}: no packed {want} on {reg} (the gate loops did not vectorise)')
    wider = {'xmm': ('ymm', 'zmm'), 'ymm': ('zmm',), 'zmm': ()}[reg]
    for addr, op, args in code:
        if any(w in args for w in wider):
            failures.append(f'{name}: {op} {args} at {addr:x} is wider than the tier')
            break
    divs = sum(1 for _, op, args in code if op.lstrip('v') == 'divps' and reg in args)
    print(f'{name}: {divs} packed divides on {reg}')

# --- Weight fill: `fill_avx512`'s loops run the generator on zmm lanes. ---
name = 'bm_tensor::init::fill_avx512'
loops = inner_loops(body(name))
if name in symbols and not loops:
    failures.append(f'{name}: no loop found')
for loop in loops:
    if not any(op == 'vpmullq' and 'zmm' in args for _, op, args in loop):
        failures.append(f'{name}: a loop at {loop[0][0]:x} has no vpmullq on zmm '
                        '(the lanes did not vectorise)')
    for addr, op, args in loop:
        if op.startswith('imul'):
            failures.append(f'{name}: scalar {op} inside a loop at {addr:x}')
print(f'{name}: {len(loops)} loops checked')

# --- No libm transcendental anywhere in the tensor, cell or model code. ---
for name, code in symbols.items():
    if re.search(r'\bbm_(tensor|cell|model)::', name):
        for addr, op, args in code:
            if libm.search(args):
                failures.append(f'{name}: libm reference at {addr:x}: {op} {args}')

if failures:
    print('\n'.join(['check_kernel_asm: FAILED'] + failures))
    sys.exit(1)
print('check_kernel_asm: ok')
PY
