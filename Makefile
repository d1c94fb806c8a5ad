.PHONY: check check-parallel check-model chaos-smoke gst-smoke validity-smoke serve-smoke serve-replica-smoke vvbench-smoke cli-smoke build test bench bench-smoke bench-baseline bench-gate

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

cli-smoke: ## bad CLI input: a usage error (exit 124), or exit 1 for an unreachable daemon; printed protocol labels parse (exit 0); never an uncaught exception, no socket file left
	dune build
	@rm -f _build/cli-smoke.sock; status=0; \
	for case in "124 serve --socket _build/cli-smoke.sock --batch 0" \
	  "124 serve --socket _build/cli-smoke.sock -n 0" \
	  "124 serve --socket _build/cli-smoke.sock -n 3 -t 5" \
	  "124 ledger -n 0" "124 ledger -n 3 -t 5" \
	  "124 ledger --slots=0" "124 ledger --slots=-1" \
	  "124 chaos --trials=0" "124 gst --trials=0" "124 validity --trials=-3" \
	  "124 run -t-1" "124 run -f-1" "124 radio -t-1" "124 radio -t 20" \
	  "124 radio -t 9" \
	  "124 radio --topology=ring:0" "124 radio --topology=complete:0" \
	  "124 radio --topology=grid:1:0" "124 radio --topology=geo:0:1" \
	  "124 radio --topology=geo:5:0.01" "124 radio --topology=complete:1 -t 0" \
	  "124 bounds -n 5 -t-1" "124 bounds -n-5 -t 1" \
	  "124 bounds -n 5 -t 1 --bg=-1" "124 bounds -n 5 -t 1 --cg=-1" \
	  "0 run -p algo2-sct" "0 run -p sct-incr" \
	  "124 load --socket _build/cli-smoke-missing/x.sock --retry-for 0 --subjects=-1" \
	  "1 load --socket _build/cli-smoke-missing/x.sock --retry-for 0"; do \
	  want=$${case%% *}; args=$${case#* }; \
	  timeout 10 _build/default/bin/vvc.exe $$args > /dev/null 2> _build/cli-smoke.err; \
	  code=$$?; \
	  if [ $$code -ne $$want ] || grep -qi "uncaught exception" _build/cli-smoke.err \
	     || [ -e _build/cli-smoke.sock ]; then \
	    echo "vvc $$args: exit $$code, expected $$want"; cat _build/cli-smoke.err; status=1; \
	  else echo "vvc $$args: exit $$code as expected"; fi; \
	  rm -f _build/cli-smoke.sock; \
	done; \
	rm -f _build/cli-smoke.err; exit $$status

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe -- --bench

bench-smoke: ## CI-sized benchmark pass: smoke-tier tables + shrunk timings, JSON to _build/bench.json
	dune exec bench/main.exe -- --quick --json=_build/bench.json

bench-baseline: ## regenerate the committed benchmark baseline (BENCH_006.json)
	dune exec bench/main.exe -- --bench --quick --json=BENCH_006.json

bench-gate: ## quick bench run diffed against the committed baseline; exits 1 on >25% regression
	dune exec bench/main.exe -- --bench --quick --json=_build/bench.json
	dune exec bench/diff.exe -- BENCH_006.json _build/bench.json --tolerance=0.25
