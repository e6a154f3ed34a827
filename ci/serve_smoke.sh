#!/usr/bin/env bash
# Serve smoke test (CI step; also runs locally): trains one epoch on the
# digits scenario, checkpoints, pipes requests through the real
# micro-batched sqvae_serve server (once from a file, once from a client
# that writes 500 requests before reading, then the same 500 under
# trajectory noise and under finite shots, then an SQ-VAE on all four
# endpoints), and diffs the output byte-for-byte against --reference mode —
# which answers the same requests through in-process Autoencoder calls
# (serve::execute_single) with no queue, no workers, no batching.
# Identical bytes = the serving stack reproduced the model's own output
# exactly, which is the subsystem's determinism contract end to end
# (train -> checkpoint -> load_params_only -> serve).
#
# Usage: ci/serve_smoke.sh [BUILD_DIR]
set -eu

BUILD="${1:-build}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== serve smoke: training 1 epoch on digits =="
"$BUILD/sqvae_train" --scenario=digits --model=sq-ae --epochs=1 \
  --samples=96 --layers=2 --patches=2 --checkpoint="$WORK/smoke.ckpt" \
  --seed=11

echo "== serve smoke: building requests =="
python3 - "$WORK/requests.jsonl" <<'EOF'
import math
import sys

x = [round(0.5 + 0.45 * math.sin(0.31 * i), 6) for i in range(64)]
z = [round(0.2 * math.cos(0.7 * i), 6) for i in range(10)]  # LSD(64, 2) = 10
lines = [
    '{"op": "encode", "id": 1, "seed": 101, "x": %s}' % x,
    '{"op": "reconstruct", "id": 2, "seed": 102, "x": %s}' % x,
    '{"op": "decode", "id": 3, "seed": 103, "x": %s}' % z,
]
with open(sys.argv[1], "w") as f:
    f.write("\n".join(lines) + "\n")
EOF

SERVE_FLAGS="--checkpoint=$WORK/smoke.ckpt --model=sq-ae --input_dim=64 \
  --layers=2 --patches=2"

echo "== serve smoke: micro-batched server =="
"$BUILD/sqvae_serve" $SERVE_FLAGS --max_batch=8 --threads=2 \
  < "$WORK/requests.jsonl" > "$WORK/served.out"
cat "$WORK/served.out"

echo "== serve smoke: in-process reference =="
"$BUILD/sqvae_serve" $SERVE_FLAGS --reference \
  < "$WORK/requests.jsonl" > "$WORK/reference.out"

diff -u "$WORK/served.out" "$WORK/reference.out"

# Piped run: a client that writes every request before reading any
# response. The server must keep reading while its output pipe is full;
# a server that stops reading deadlocks here, so the client runs under a
# deadline.
echo "== serve smoke: write-all-then-read client, 500 requests =="
python3 - "$WORK/piped.jsonl" <<'EOF'
import math
import sys

ops = ["reconstruct", "encode", "reconstruct", "decode"]
with open(sys.argv[1], "w") as f:
    for i in range(500):
        op = ops[i % len(ops)]
        n = 10 if op == "decode" else 64  # LSD(64, 2) = 10
        x = [round(0.5 + 0.45 * math.sin(0.31 * j + 0.07 * i), 6)
             for j in range(n)]
        f.write('{"op": "%s", "id": %d, "seed": %d, "x": %s}\n'
                % (op, i, 1000 + i, x))
EOF
timeout 60 python3 - "$WORK/piped.jsonl" "$WORK/piped.out" \
  "$BUILD/sqvae_serve" $SERVE_FLAGS --max_batch=8 --threads=2 <<'EOF'
import subprocess
import sys

requests, out_path, cmd = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(requests, "rb") as f:
    data = f.read()
server = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
server.stdin.write(data)  # every request first, reading nothing
server.stdin.close()
out = server.stdout.read()
if server.wait() != 0:
    sys.exit("sqvae_serve exited %d" % server.returncode)
with open(out_path, "wb") as f:
    f.write(out)
EOF
"$BUILD/sqvae_serve" $SERVE_FLAGS --reference \
  < "$WORK/piped.jsonl" > "$WORK/piped.reference.out"
diff -q "$WORK/piped.out" "$WORK/piped.reference.out"
echo "piped run: $(wc -l < "$WORK/piped.out") responses," \
  "$(wc -c < "$WORK/piped.out") bytes, byte-identical to the reference"

# The same 500 lines under trajectory noise, then under finite shots.
# Measurement noise is keyed by each row's circuit inputs, so noisy
# requests coalesce like exact ones and each regime's served bytes must
# still equal its reference; they must also differ from the exact answers,
# or the noise never ran.
for NOISE_FLAGS in "--backend=trajectory --gate_error=0.05 --shots=32" \
                   "--backend=shots --shots=64"; do
  echo "== serve smoke: 500 requests under $NOISE_FLAGS =="
  "$BUILD/sqvae_serve" $SERVE_FLAGS $NOISE_FLAGS --max_batch=8 --threads=2 \
    < "$WORK/piped.jsonl" > "$WORK/noisy.out"
  "$BUILD/sqvae_serve" $SERVE_FLAGS $NOISE_FLAGS --reference \
    < "$WORK/piped.jsonl" > "$WORK/noisy.reference.out"
  diff -q "$WORK/noisy.out" "$WORK/noisy.reference.out"
  if cmp -s "$WORK/noisy.out" "$WORK/piped.out"; then
    echo "noisy run: output equals the exact output" >&2
    exit 1
  fi
  echo "noisy run: $(wc -l < "$WORK/noisy.out") responses, byte-identical" \
    "to the reference and different from the exact output"
done
# An SQ-VAE: reconstruct draws reparameterisation noise from each request's
# seed, and the coalesced pass must still match the per-request reference
# on all four endpoints.
echo "== serve smoke: sq-vae, all four endpoints =="
"$BUILD/sqvae_train" --scenario=digits --model=sq-vae --epochs=1 \
  --samples=96 --layers=2 --patches=2 --checkpoint="$WORK/vae.ckpt" \
  --seed=12 > /dev/null
python3 - "$WORK/vae.jsonl" <<'EOF'
import math
import sys

ops = ["reconstruct", "encode", "latent_sample", "decode"]
with open(sys.argv[1], "w") as f:
    for i in range(200):
        op = ops[i % len(ops)]
        line = '{"op": "%s", "id": %d, "seed": %d' % (op, i, 2000 + i)
        if op != "latent_sample":
            n = 10 if op == "decode" else 64  # LSD(64, 2) = 10
            x = [round(0.5 + 0.45 * math.sin(0.29 * j + 0.05 * i), 6)
                 for j in range(n)]
            line += ', "x": %s' % x
        f.write(line + "}\n")
EOF
VAE_FLAGS="--checkpoint=$WORK/vae.ckpt --model=sq-vae --input_dim=64 \
  --layers=2 --patches=2"
"$BUILD/sqvae_serve" $VAE_FLAGS --max_batch=8 --threads=2 \
  < "$WORK/vae.jsonl" > "$WORK/vae.out"
"$BUILD/sqvae_serve" $VAE_FLAGS --reference \
  < "$WORK/vae.jsonl" > "$WORK/vae.reference.out"
diff -q "$WORK/vae.out" "$WORK/vae.reference.out"
echo "sq-vae run: $(wc -l < "$WORK/vae.out") responses, byte-identical to" \
  "the reference"
echo "serve smoke passed: served output is byte-identical to the in-process reference"
