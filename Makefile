.PHONY: check check-parallel check-model chaos-smoke gst-smoke validity-smoke serve-smoke serve-replica-smoke vvbench-smoke cli-smoke registry-pin build test bench bench-smoke bench-baseline bench-gate bench-pairs

check: ## build everything, then run the full test suite
	dune build && dune runtest

check-parallel: ## the jobs-invariance + domain-safety suite (spawns up to 4 domains)
	dune build && dune exec test/test_exec.exe -- test parallel

check-model: ## exhaustive small-model smoke sweep (vv_check); exits 1 on violation
	dune build && dune exec bin/vvc.exe -- check --profile=smoke

chaos-smoke: ## chaos-substrate resilience campaign, CI tier; exits 1 on a safety violation
	dune build && dune exec bin/vvc.exe -- chaos --profile=smoke

gst-smoke: ## network-agnostic validity campaign (E20), CI tier; exits 1 on a violation in a predicted-achievable cell
	dune build && dune exec bin/vvc.exe -- gst --profile=smoke --jobs=0

validity-smoke: ## validity-hierarchy campaign (E21), CI tier; exits 1 if a predicted-solvable (impl, config, property) triple violates or stalls
	dune build && dune exec bin/vvc.exe -- validity --profile=smoke --jobs=0

serve-smoke: ## boot the serve daemon, drive a scripted burst through it, verify streamed decisions, clean shutdown
	dune build
	rm -f _build/serve-smoke.sock _build/serve-smoke.snap
	_build/default/bin/vvc.exe serve --socket _build/serve-smoke.sock \
	  --batch 4 --jobs 2 --snapshot _build/serve-smoke.snap --quiet & \
	server=$$!; \
	_build/default/bin/vvc.exe load --socket _build/serve-smoke.sock \
	  --clients 3 --subjects 48 --shutdown --format json; \
	status=$$?; \
	wait $$server || status=1; \
	rm -f _build/serve-smoke.sock _build/serve-smoke.snap; \
	exit $$status

serve-replica-smoke: ## crash-recovery soak: primary + follower, kill -9 the primary, tear its log, restart from it, racy second burst, require byte-identical logs
	dune build
	rm -f _build/srs-p.sock _build/srs-f.sock _build/srs-p.snap _build/srs-f.snap
	_build/default/bin/vvc.exe serve --socket _build/srs-p.sock \
	  --batch 4 --snapshot _build/srs-p.snap --quiet & \
	primary=$$!; \
	_build/default/bin/vvc.exe serve --socket _build/srs-f.sock \
	  --follow _build/srs-p.sock --batch 4 --snapshot _build/srs-f.snap --quiet & \
	follower=$$!; \
	status=0; \
	_build/default/bin/vvc.exe load --socket _build/srs-p.sock \
	  --clients 3 --subjects 48 --format json || status=1; \
	for i in $$(seq 1 100); do \
	  cmp -s _build/srs-p.snap _build/srs-f.snap && break; sleep 0.1; \
	done; \
	cmp _build/srs-p.snap _build/srs-f.snap || status=1; \
	kill -9 $$primary; wait $$primary 2>/dev/null; \
	printf '{"index":48,"subject":' >> _build/srs-p.snap; \
	_build/default/bin/vvc.exe serve --socket _build/srs-p.sock \
	  --batch 4 --snapshot _build/srs-p.snap --quiet & \
	primary=$$!; \
	_build/default/bin/vvc.exe load --socket _build/srs-p.sock \
	  --clients 3 --subjects 48 --racy --format json || status=1; \
	for i in $$(seq 1 100); do \
	  cmp -s _build/srs-p.snap _build/srs-f.snap && break; sleep 0.1; \
	done; \
	cmp _build/srs-p.snap _build/srs-f.snap || status=1; \
	_build/default/bin/vvc.exe load --socket _build/srs-p.sock \
	  --subjects 0 --shutdown > /dev/null || status=1; \
	_build/default/bin/vvc.exe load --socket _build/srs-f.sock \
	  --subjects 0 --shutdown > /dev/null || status=1; \
	wait $$primary || status=1; \
	wait $$follower || status=1; \
	rm -f _build/srs-p.sock _build/srs-f.sock _build/srs-p.snap _build/srs-f.snap; \
	exit $$status

vvbench-smoke: ## every benchmark workload for 2 s; fails unless its correctness gate holds (correct, 0 failed)
	@for w in check-full serve-commit serve-recover; do \
	  last=$$(bash vvbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
	  echo "$$w: $$(printf '%s' "$$last" | cut -c 1-72)"; \
	  case "$$last" in \
	    '{"correct": true, "attempted": '*', "failed": 0, '*) ;; \
	    *) echo "$$w: correctness gate failed"; exit 1 ;; \
	  esac; \
	done

cli-smoke: ## bad CLI input: a usage error (exit 124), or exit 1 for an unreachable daemon or an uncreatable --csv-dir; printed protocol labels parse (exit 0); never an uncaught exception, a hang or a socket file left
	dune build
	@rm -f _build/cli-smoke.sock; status=0; \
	for case in "124 serve --socket _build/cli-smoke.sock --batch 0" \
	  "124 serve --socket _build/cli-smoke.sock -n 0" \
	  "124 serve --socket _build/cli-smoke.sock -n 3 -t 5" \
	  "124 ledger -n 0" "124 ledger -n 3 -t 5" \
	  "124 ledger --slots=0" "124 ledger --slots=-1" \
	  "124 chaos --trials=0" "124 gst --trials=0" "124 validity --trials=-3" \
	  "124 run -t-1" "124 run -f-1" "124 run --delay=0" \
	  "124 radio -t-1" "124 radio -t 20" \
	  "124 radio -t 9" \
	  "124 radio --topology=ring:0" "124 radio --topology=complete:0" \
	  "124 radio --topology=grid:1:0" "124 radio --topology=geo:0:1" \
	  "124 radio --topology=geo:5:0.01" "124 radio --topology=complete:1 -t 0" \
	  "124 bounds -n 5 -t-1" "124 bounds -n-5 -t 1" \
	  "124 bounds -n 5 -t 1 --bg=-1" "124 bounds -n 5 -t 1 --cg=-1" \
	  "0 run -p algo2-sct" "0 run -p sct-incr" \
	  "124 serve --port 70000" "124 load --port 70000 --retry-for 0" \
	  "124 serve --socket _build/cli-smoke.sock --follow 127.0.0.1:70000" \
	  "124 serve --socket _build/cli-smoke.sock --follow 127.0.0.1:99999999999999999999999" \
	  "124 load --socket _build/cli-smoke-missing/x.sock --retry-for 0 --subjects=-1" \
	  "1 load --socket _build/cli-smoke-missing/x.sock --retry-for 0" \
	  "1 all --profile=smoke --csv-dir=_build/cli-smoke-missing/x" \
	  "124 exp nope" "124 exp e2" "124 check --format=cs" \
	  "124 check --validity=,"; do \
	  want=$${case%% *}; args=$${case#* }; \
	  timeout --preserve-status -k 5 10 _build/default/bin/vvc.exe $$args \
	    > /dev/null 2> _build/cli-smoke.err; \
	  code=$$?; \
	  if [ $$code -ne $$want ] || grep -qi "uncaught exception" _build/cli-smoke.err \
	     || [ -e _build/cli-smoke.sock ]; then \
	    echo "vvc $$args: exit $$code, expected $$want"; cat _build/cli-smoke.err; status=1; \
	  else echo "vvc $$args: exit $$code as expected"; fi; \
	  rm -f _build/cli-smoke.sock; \
	done; \
	rm -f _build/cli-smoke.err; exit $$status

# `vvc all` is the one path that regenerates every table: its full-tier
# CSV must be the registry goldens concatenated in `vvc list` order, and
# its smoke-tier CSV must not depend on the domain count.
registry-pin: ## vvc all --format=csv equals the registry goldens (full tier, jobs 3) and is identical at jobs 1 and 3 (smoke tier)
	dune build
	@vvc=_build/default/bin/vvc.exe; \
	for id in $$($$vvc list | cut -d' ' -f1); do \
	  i=0; while [ -f test/golden/$${id}_$$i.csv ]; do \
	    cat test/golden/$${id}_$$i.csv; i=$$((i + 1)); done; \
	done > _build/registry-pin.golden.csv; \
	$$vvc all --profile=full --jobs=3 --format=csv > _build/registry-pin.full.csv \
	  && cmp _build/registry-pin.golden.csv _build/registry-pin.full.csv \
	  && $$vvc all --profile=smoke --jobs=1 --format=csv > _build/registry-pin.smoke1.csv \
	  && $$vvc all --profile=smoke --jobs=3 --format=csv > _build/registry-pin.smoke3.csv \
	  && cmp _build/registry-pin.smoke1.csv _build/registry-pin.smoke3.csv \
	  && echo "registry-pin: full tier equals the goldens; smoke tier equal at jobs 1 and 3"

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-smoke: ## CI-sized benchmark pass: shrunk timings, JSON to _build/bench.json
	dune exec bench/main.exe -- --quick --json=_build/bench.json

bench-baseline: ## regenerate the committed benchmark baseline (BENCH_006.json)
	dune exec bench/main.exe -- --quick --json=BENCH_006.json

bench-gate: ## quick bench run diffed against the committed baseline; exits 1 on >25% regression
	dune exec bench/main.exe -- --quick --json=_build/bench.json
	dune exec bench/diff.exe -- BENCH_006.json _build/bench.json --tolerance=0.25

# Alternating vvbench pairs of REV against this checkout.  REV's tree is
# extracted with `git archive` under _build/pairs/base (no worktree,
# nothing written to .git); odd pairs run the base first, even pairs the
# change.  Each run's result line is kept in _build/pairs/base.jsonl or
# change.jsonl, and bench/pairs.exe summarises every end-to-end metric
# of BENCHMARK.json.
PAIRS ?= 10
SECONDS ?= 32
SEED ?= 1

bench-pairs: ## alternating benchmark pairs: make bench-pairs REV=<rev> WORKLOAD=<w> [PAIRS=10 SECONDS=32 SEED=1]
	@if [ -z "$(REV)" ] || [ -z "$(WORKLOAD)" ]; then \
	  echo "usage: make bench-pairs REV=<rev> WORKLOAD=<w> [PAIRS=10 SECONDS=32 SEED=1]"; exit 2; fi
	dune build ./bench/pairs.exe
	rm -rf _build/pairs && mkdir -p _build/pairs/base
	git archive -o _build/pairs/base.tar $(REV)
	tar -xf _build/pairs/base.tar -C _build/pairs/base
	@run() { \
	  bash $$1/vvbench/run.sh --workload $(WORKLOAD) --seed $(SEED) \
	    --seconds $(SECONDS) --trace 0 > _build/pairs/run.out || return 1; \
	  tail -n 1 _build/pairs/run.out >> _build/pairs/$$2.jsonl; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) -eq 1 ]; then run _build/pairs/base base && run . change; \
	  else run . change && run _build/pairs/base base; fi || exit 1; \
	  echo "$(WORKLOAD): pair $$i of $(PAIRS) done"; \
	done
	_build/default/bench/pairs.exe BENCHMARK.json _build/pairs/base.jsonl \
	  _build/pairs/change.jsonl
