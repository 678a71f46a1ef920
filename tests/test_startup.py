"""scipy loads at the first description or safeguard, not with the package:
each test runs in a fresh interpreter, where nothing has loaded it yet."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rigidreg

_SRC = str(Path(rigidreg.__file__).resolve().parents[1])

# prints the scipy modules loaded so far, as the last line of stdout
_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

_PAIR = """
import numpy as np
from rigidreg import PipelineConfig, SyntheticPairSpec, generate_pair, register

pair = generate_pair(SyntheticPairSpec(n_points=400, outlier_ratio=0.3, seed=5))
zeros = lambda matches, source, target: np.zeros(len(matches))

def pose_bytes(**kwargs):
    result = register(pair.source, pair.target, PipelineConfig(), **kwargs)
    transform = result.transform
    return (result.branch + ":" + transform.rotation.tobytes().hex()
            + transform.translation.tobytes().hex())
"""


def _fresh(code: str, **env) -> list[str]:
    """stdout lines of ``code`` run in a new interpreter that imports the
    package from this checkout."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_no_scipy():
    assert _fresh(f"import sys, rigidreg\n{_SCIPY_LOADED}") == ["[]"]


def test_numpy_only_entry_points_load_no_scipy(tmp_path):
    # io, external correspondences on the main branch (API and CLI), the
    # gradient API and the CLI's help and usage errors
    lines = _fresh(f"""
        import sys
        import numpy as np
        from rigidreg import (
            CorrespondenceSet, PipelineConfig, PointCloud, RefineConfig, RigidTransform,
            WeightVector, energy_gradient, grad_weights, matrix_to_rot6d, normalize_weights,
            read_ply, read_weight_file, register_with_correspondences, solve, write_ply,
            write_weight_file)
        from rigidreg.cli import main

        points = np.random.default_rng(3).normal(size=(200, 3))
        truth = RigidTransform(np.eye(3)[[1, 2, 0]], np.array([0.1, 0.2, 0.3]))
        write_ply(PointCloud(points), {str(tmp_path / 's.ply')!r})
        write_ply(PointCloud(truth.apply(points)), {str(tmp_path / 't.ply')!r})
        pairs = np.column_stack([np.arange(200), np.arange(200)])
        write_weight_file({str(tmp_path / 'w.dgrw')!r}, 200, 200, pairs, np.ones(200))

        source = read_ply({str(tmp_path / 's.ply')!r})
        target = read_ply({str(tmp_path / 't.ply')!r})
        _, _, pairs, weights = read_weight_file({str(tmp_path / 'w.dgrw')!r})
        matches = CorrespondenceSet(pairs, 200, 200)
        result = register_with_correspondences(
            matches, WeightVector(weights), source, target, PipelineConfig())
        print(result.branch)
        normalized = normalize_weights(WeightVector(weights), 0.0)
        fit = solve(source.points, target.points, normalized)
        grad_weights(fit, source.points, target.points, normalized, np.ones((3, 3)), np.ones(3))
        energy_gradient(matrix_to_rot6d(fit.rotation), fit.translation, matches, source,
                        target, WeightVector(weights), RefineConfig())
        print(main(["register", "--source", {str(tmp_path / 's.ply')!r},
                    "--target", {str(tmp_path / 't.ply')!r},
                    "--weights", {str(tmp_path / 'w.dgrw')!r},
                    "--out", {str(tmp_path / 'pose.json')!r}]))
        print(main(["--help"]), main(["register"]))
        {_SCIPY_LOADED}
    """)
    assert lines[0] == "weighted_procrustes_refined"
    assert lines[1] == "0"
    assert lines[-2:] == ["0 1", "[]"]


def test_first_suite_on_two_threads_matches_a_serial_run():
    # the pool's first registrations load scipy on two threads at once
    code = f"""
        import math, sys
        sys.setswitchinterval(1e-6)
        import numpy as np
        from rigidreg import PipelineConfig, SyntheticPairSpec, run_benchmark

        suite = [SyntheticPairSpec(n_points=300, outlier_ratio=0.3, seed=s) for s in range(4)]
        zeros = lambda matches, source, target: np.zeros(len(matches))
        for weighter in (None, zeros):
            report = run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.3,
                                   weighter=weighter)
            print(repr(report.records))
        {_SCIPY_LOADED}
    """
    parallel = _fresh(code, DGR_THREADS="2")
    serial = _fresh(code, DGR_THREADS="1")
    assert parallel == serial
    assert "error=None" in parallel[0] and "safeguard" in parallel[1]
    assert "scipy.sparse" in parallel[-1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_before_first_use_registers():
    lines = _fresh(_PAIR + f"""
import os, sys
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    status = 1
    try:
        os.close(read)
        os.write(write, (pose_bytes() + " " + pose_bytes(weighter=zeros)).encode())
        status = 0
    finally:
        os._exit(status)
os.close(write)
with os.fdopen(read) as child:
    from_child = child.read()
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
{_SCIPY_LOADED}
print(from_child == pose_bytes() + " " + pose_bytes(weighter=zeros))
""")
    assert lines == ["0", "[]", "True"]


def test_pose_bytes_do_not_depend_on_when_scipy_loads():
    poses = "print(pose_bytes())\nprint(pose_bytes(weighter=zeros))"
    late = _fresh(_PAIR + poses)
    early = _fresh("import scipy.sparse, scipy.spatial, scipy.spatial.distance\n"
                   + _PAIR + poses)
    assert late == early
    assert late[0].startswith("weighted_procrustes_refined:")
    assert late[1].startswith("safeguard:")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_fork_during_the_first_import_waits_for_it():
    # a thread is held inside the first import of scipy.spatial when the
    # main thread forks; the child must not inherit that import half done
    lines = _fresh("""
        import os, sys, threading, time
        import numpy as np
        from rigidreg import correspondence

        entered = threading.Event()

        class Stall:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy.spatial":
                    entered.set()
                    time.sleep(1.0)
                return None

        sys.meta_path.insert(0, Stall())
        points = np.random.default_rng(0).normal(size=(50, 3))
        first = threading.Thread(target=correspondence.cKDTree, args=(points,))
        first.start()
        assert entered.wait(60)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                correspondence.cKDTree(points).query(points[:1])
                status = 0
            finally:
                os._exit(status)
        first.join()
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                print(os.waitstatus_to_exitcode(status))
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                print("the child hung")
                break
            time.sleep(0.05)
    """)
    assert lines == ["0"]
