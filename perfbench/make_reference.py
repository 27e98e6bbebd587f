"""Write reference.json: SHA-256 digests of every output the benchmark checks.

Usage, from the root of a checkout whose outputs are known to be right:

    python3 perfbench/make_reference.py

It runs each verify seed in ``run.VERIFY_SEEDS`` and each export in
``run.VR_R`` once, untraced, and records the digest of each output file.
A change that must keep every output byte-identical never reruns this.
"""

import json
import time

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run.check_checkout()
    processes = [run.verify_process(s, {}) for s in run.VERIFY_SEEDS]
    processes += run.export_job(run.VR_R[0], {})
    processes += [run.export_job(r, {})[1] for r in run.VR_R[1:]]
    reference: dict = {"verify": {}, "export": {}}
    for proc in processes:
        proc.check = lambda data: []  # nothing to check against yet
        job = run.run_job([proc], False, time.perf_counter() + run.PROCESS_LIMIT_S)
        argv = proc.calls[0]
        if job.errors or json.loads(job.outputs[0])[:2] != [0, None]:
            raise SystemExit(f"{argv[:2]} failed: {job.errors or job.outputs}")
        digest = json.loads(job.outputs[0])[3]
        if argv[0] == "verify":
            reference["verify"][argv[argv.index("--seed") + 1]] = digest
        else:
            reference["export"][run.Path(argv[argv.index("--out") + 1]).stem] = digest
        print(argv[:2], f"{job.wall_s:.2f}s", digest, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
