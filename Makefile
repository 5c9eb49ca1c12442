# Convenience targets around dune. `make check` is the full gate; CI runs
# its parts (`build test`, `bench-gates benchdiff`, `smoke`) as a matrix.
# Every smoke sequence is a named target below, with its exit-code tests
# and JSON assertions (bench/smoke.py), so each command exists in one place.
#
#   test          build + the complete test suite (including the 200-seed
#                 tier-equivalence harness)
#   bench-gates   a quick benchmark pass over every tracked section
#                 (table2, profile, tier, witness, gateway, fuzz, server;
#                 the tier and witness sections assert the nBench golden
#                 digests under both tiers and reject a doctored witness),
#                 schema checks, the bench-history regression gate, and a
#                 self-test that the gate fires on injected 2x slowdowns
#   smoke         forensics (exit 9), chaos campaign (fail-closed), fuzz
#                 campaign (sound and complete, witness mutants included),
#                 witnessed admission, gateway fan-out + audit tamper (exit
#                 12), server cold/warm/kill/tamper/campaign (exit 137,
#                 14), and the byte-identity goldens
#
# `make benchdiff` compares the newest bench run against the committed
# baseline (bench/baseline.json) -- advisory: wall clock is machine-
# dependent, so the comparator prints verdicts but always exits 0.

DX = dune exec bin/deflectionc.exe --
JC = dune exec bin/json_check.exe --
SMOKE = python3 bench/smoke.py
R = bench/results
G = bench/golden/cli

.PHONY: all build test bench benchdiff check clean bench-gates bench-quick regress \
  regress-selftest smoke smoke-forensics smoke-chaos smoke-fuzz smoke-witness \
  smoke-gateway smoke-server smoke-server-crash golden

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

benchdiff:
	$(DX) benchdiff bench/baseline.json $(R)/latest.json -o $(R)/benchdiff-baseline.json

check: build test bench-gates smoke

bench-gates: bench-quick regress regress-selftest

smoke: smoke-forensics smoke-chaos smoke-fuzz smoke-witness smoke-gateway smoke-server \
  smoke-server-crash golden

bench-quick:
	dune exec bench/main.exe -- --quick table2 profile tier witness gateway fuzz server
	$(JC) --bench $(R)/latest.json
	$(JC) $(R)/profile-numeric-sort.json

regress: bench-quick
	$(DX) benchdiff $(R)/history $(R)/latest.json -o $(R)/benchdiff.json
	$(JC) --regress $(R)/benchdiff.json

# each tracked throughput family, halved, must make the regress gate fail
# (judged against this run itself, so host noise cannot mask the 2x)
regress-selftest: bench-quick
	set -e; for m in tier.trace_instr_per_sec witness.witness_instr_per_sec \
	  "table2.instr_per_sec fuzz.verify_instr_per_sec gateway.warm_over_cold_x"; do \
	  $(SMOKE) slow $(R)/latest.json $(R)/slow.json $$m; \
	  $(DX) benchdiff $(R)/latest.json $(R)/slow.json -o $(R)/benchdiff-slow.json; \
	  if $(JC) --regress $(R)/benchdiff-slow.json; then \
	    echo "regress gate failed to flag a 2x slowdown of $$m"; exit 1; fi; \
	done

smoke-forensics:
	mkdir -p $(R)
	$(DX) run examples/minic/violate_store.mc \
	  --forensics=$(R)/forensics-smoke.json; test $$? -eq 9
	$(JC) $(R)/forensics-smoke.json

smoke-chaos:
	mkdir -p $(R)
	$(DX) chaos --seeds 50 --base-seed 1 -o $(R)/chaos.json
	$(JC) --chaos $(R)/chaos.json

smoke-fuzz:
	mkdir -p $(R)
	$(DX) fuzz --seeds 200 --mutants 200 --witness-mutants 200 --base-seed 1 \
	  -o $(R)/fuzz.json
	$(JC) --fuzz $(R)/fuzz.json

# both verification modes admit a compiled service, alone and in a batch
smoke-witness:
	mkdir -p $(R)
	$(DX) compile examples/minic/sum_service.mc -o $(R)/sum.dfl
	$(DX) verify $(R)/sum.dfl --verify-mode descent
	$(DX) verify $(R)/sum.dfl --verify-mode witnessed
	$(DX) run examples/minic/sum_service.mc --verify-mode witnessed-fallback
	$(DX) gateway --sessions 9 --jobs 2 --seed 1 --verify-mode witnessed \
	  -o $(R)/gateway-witnessed.json
	$(JC) --gateway $(R)/gateway-witnessed.json

# two domains with the audit plane on: byte-identical to the sequential
# golden run outside "timing"; the sealed log verifies, and a flipped
# field or a dropped record must fail with exit 12
smoke-gateway: golden
	$(DX) gateway --sessions 9 --jobs 2 --seed 1 --audit $(R)/audit.json \
	  -o $(R)/gateway.json
	$(JC) --gateway $(R)/gateway.json
	$(SMOKE) same $(R)/gateway.json $(R)/gateway-seq.json
	$(DX) audit verify $(R)/audit.json --seed 1
	$(JC) --audit $(R)/audit.json
	$(SMOKE) tamper-audit $(R)/audit.json $(R)/audit-flip.json $(R)/audit-drop.json
	for f in audit-flip audit-drop; do \
	  $(DX) audit verify $(R)/$$f.json --seed 1; rc=$$?; \
	  if [ $$rc -ne 12 ]; then echo "$$f: expected tamper exit 12, got $$rc"; exit 1; fi; \
	done

# the golden cold run, checked and audit-verified, must restart warm
# from its sealed cache; then the server chaos campaign must find no
# fail-open across kills and sealed-state tampering
smoke-server: golden
	$(JC) --server $(R)/server-j2.json
	$(DX) audit verify $(R)/server-audit-j2.json --seed 7
	$(DX) serve --offered 60 --rounds 6 --batch 8 --queue 24 --jobs 2 \
	  --state $(R)/server-state-j2 --expect-warm -o $(R)/server-warm.json
	$(JC) --server $(R)/server-warm.json
	$(DX) serve --campaign --seeds 4 --base-seed 1004 --offered 36 \
	  --state $(R)/server-chaos-state -o $(R)/server-chaos.json

# killed mid-run (exit 137, no final seal): the round-by-round audit log
# still verifies, the restart comes back warm, and a MAC-corrupted
# segment degrades to cold re-verification instead of failing the start
smoke-server-crash:
	mkdir -p $(R)
	rm -rf $(R)/crash-state
	$(DX) serve --offered 80 --rounds 8 --batch 8 --queue 24 --jobs 2 --seed 7 \
	  --state $(R)/crash-state --audit $(R)/crash-audit.json \
	  -o $(R)/crash-cold.json --kill-after 4; test $$? -eq 137
	$(DX) audit verify $(R)/crash-audit.json --seed 7
	$(JC) --audit $(R)/crash-audit.json
	$(DX) serve --offered 80 --rounds 8 --batch 8 --queue 24 --jobs 2 --seed 7 \
	  --state $(R)/crash-state --audit $(R)/crash-audit-warm.json \
	  -o $(R)/crash-warm.json --expect-warm
	$(JC) --server $(R)/crash-warm.json
	$(DX) audit verify $(R)/crash-audit-warm.json --seed 7
	$(SMOKE) corrupt-segment $(R)/crash-state/verdict-cache.json
	$(DX) serve --offered 40 --rounds 4 --batch 8 --queue 24 --seed 7 \
	  --state $(R)/crash-state -o $(R)/crash-tampered.json
	$(JC) --server $(R)/crash-tampered.json
	$(SMOKE) recovered-warm $(R)/crash-tampered.json

# Byte-identity goldens in bench/golden/cli (canonical JSON, "timing"
# stripped): the sequential gateway batch and its audit log, the server at
# one and four workers against one report, and the persisted server at one
# worker (report + audit log) and two (report + audit record multiset).
# Regenerate deliberately with DEFLECTION_UPDATE_GOLDEN=1 make golden.
golden:
	mkdir -p $(R)
	rm -rf $(R)/server-state-j1 $(R)/server-state-j2
	$(DX) gateway --sessions 9 --jobs 1 --seed 1 --audit $(R)/audit-seq.json \
	  -o $(R)/gateway-seq.json
	$(SMOKE) golden $(G)/gateway-n9-j1.json $(R)/gateway-seq.json
	$(SMOKE) golden $(G)/gateway-n9-j1-audit.json $(R)/audit-seq.json
	set -e; for k in 1 4; do \
	  $(DX) serve --offered 48 --rounds 6 --seed 3 --jobs $$k -o $(R)/server-k$$k.json; \
	  $(SMOKE) golden $(G)/serve-o48-j1.json $(R)/server-k$$k.json; \
	done
	set -e; for k in 1 2; do \
	  $(DX) serve --offered 60 --rounds 6 --batch 8 --queue 24 --jobs $$k \
	    --state $(R)/server-state-j$$k --audit $(R)/server-audit-j$$k.json \
	    -o $(R)/server-j$$k.json; \
	  $(SMOKE) golden $(G)/serve-o60-j$$k.json $(R)/server-j$$k.json; \
	done
	$(SMOKE) golden $(G)/serve-o60-j1-audit.json $(R)/server-audit-j1.json
	$(SMOKE) golden --records $(G)/serve-o60-j2-audit.json $(R)/server-audit-j2.json

clean:
	dune clean
	rm -rf bench/results
