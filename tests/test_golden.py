"""Golden bytes: pinned digests of solve_mode documents.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces) of
``solve_mode(...).to_json_obj()`` for one mode per (family, case tag) of the
embedded fixtures.  Family i uses the i-th compared pair of each case (cyclic),
so merged, same-sign and opposite-sign generic modes all appear.  The
inconsistent rows of a non-triangular lambda pin the pivot order and the
inconsistency report as well.  The CLI documents (LaTeX solves, tables, the
T-2 combination, verify), the numeric evaluators and the small-y series of one
single- and one double-Bessel mode are pinned too.  A refactor of the solver
must keep every byte.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from eisenmodes.fixtures import fixture_modes, list_families
from eisenmodes.homogeneous import solve_mode
from eisenmodes.solver import NoSolutionInWindow
from eisenmodes.sources import Params

GOLDEN = {
    ('3/2,3/2,2', 'anti_diagonal', -1, 1): 'd4402e01c54029aa5b0867a98c92774a7fabd35e9bfa2ec1b06cb37b163e08a7',
    ('3/2,3/2,2', 'generic', 1, 1): '0bd8886398f52910cfae5ffe591e75f88e09c9520c1b6ec21c3aaf54f4096058',
    ('3/2,3/2,2', 'left', 0, 1): '5b6621a2d0303e7f2f8ca2b2f7e708059ac7e93b52989744de109420da629d6b',
    ('3/2,3/2,2', 'right', 1, 0): '323b58904202017ee504d2e0a6c0e5c52c60087304aabe8cef4cf48cd71fc8a1',
    ('3/2,3/2,2', 'zero_mode', 0, 0): '7a3640d5f12b6dff674115d8329a59e7fe91de32121f3af2c8e03436a2b3bd6d',
    ('3/2,3/2,30', 'anti_diagonal', -2, 2): '04f27fe371b715f83ec0b344679a722ee38287d8c7dd83410c10ec5bb028f611',
    ('3/2,3/2,30', 'generic', 1, 2): '00058e9cc6d116c060aee18622f5a53121a47df7cf38e7edf5fc081e43cf7760',
    ('3/2,3/2,30', 'left', 0, 2): '5fcb27f052deef9e23855b65973bb86722edb86f800a0270269778a29908ca51',
    ('3/2,3/2,30', 'right', 2, 0): '9d91e62e122040f131a2f6deaa93844998e723088a980a59ef4e71bc5b9c8299',
    ('3/2,3/2,30', 'zero_mode', 0, 0): '5c14307f06f8130a2203202a0097b50a02a805c74232637282c581f3bb03974c',
    ('3/2,3/2,56', 'anti_diagonal', -3, 3): 'ac6df4fad975b91c90dbe44ba8e04e5ca6c855f4c112ecc5354c1c37ee16c474',
    ('3/2,3/2,56', 'generic', 2, 1): '87ecc5afbaee6e52bb77798597d966151df6992b40e8dfe7d3f3c9c452c78c71',
    ('3/2,3/2,56', 'left', 0, 3): 'e682dd3e167477aaf5a23437c3cc0acf4cc872dc218573a31b8dc25c72b168f6',
    ('3/2,3/2,56', 'right', 3, 0): '3f52f7c9ecadd58a1d7a055a1a2fe97179efef4f806ee7819a52cc4a148149d3',
    ('3/2,3/2,56', 'zero_mode', 0, 0): 'fa83c4c151da07511292c192b411d4058744f91510fe4e8f31886bbb4474757e',
    ('3/2,5/2,20', 'anti_diagonal', 1, -1): '84a3cfeb93528e2324a73424e48482684a7900d929f33b4d61fcfcfcf1c4f29d',
    ('3/2,5/2,20', 'generic', 2, 3): 'd3b9f22c0eb89487b77ee3567c21d4d4c7cb25c507ca75f45a933b13195c2734',
    ('3/2,5/2,20', 'left', 0, 1): '4e61ecc4456fdc62f062f98d91d0d8af0ea7d8d1058158b5f714e5db504e18dc',
    ('3/2,5/2,20', 'right', 1, 0): 'f57a713b20ca44fe0c13ef25763d65b4af7caf56e49b2242152a1d2aa9ee96c9',
    ('3/2,5/2,20', 'zero_mode', 0, 0): '499d269a9dec6b7b2fa901e0432711844c912328bc22ebb70a5f44cdada6ecad',
    ('3/2,5/2,6', 'anti_diagonal', -1, 1): '397ed3fe4bdd7974d1d68a7bd44f2f393e71bf0488a6580614c111fdfcf930ff',
    ('3/2,5/2,6', 'generic', 1, -3): '611f9004008aee157d01f44c718299efb39cb71d4e69adbe30227c48bf400b98',
    ('3/2,5/2,6', 'left', 0, 2): '2ed56f6b4f21bd49f85f51e94bde3f8148c5cd4c11fdd77ec46cb7cc9a605e43',
    ('3/2,5/2,6', 'right', 2, 0): '1a370623cbc9b8c5178330cb9141735e3a727d9bdf04f59ceb95d993b91ef7c1',
    ('3/2,5/2,6', 'zero_mode', 0, 0): '8ced6372a546965eebcbf67ebbfbd69ca52a942caadf33c9dbd4ebc2b3c28cee',
    ('3/2,7/2,12', 'anti_diagonal', -2, 2): '27d874430c13cf2b2cef02e76b51ec3f0ffc35b882bc3f3d3c20820597973fdb',
    ('3/2,7/2,12', 'generic', 3, -1): 'd1de617c75790ff5f0ea4f6a1860bc260d9cead297f7712f26cfca5e863a05bb',
    ('3/2,7/2,12', 'left', 0, 3): '85b52d887c42b8bd060aa2bca6ba75a2854cd97a183044607c476690856eeca8',
    ('3/2,7/2,12', 'right', 3, 0): '019f656ab65ed605c52f7046401ca37cf8b1c4ce02d2ffa7f92f4c0af4ad5561',
    ('3/2,7/2,12', 'zero_mode', 0, 0): '97908a9e39c6becc08dc4f375215863e67a4064ffc8d571fd51bb99168431d7d',
    ('3/2,7/2,30', 'anti_diagonal', -3, 3): '06586d1a110131d8dbc3fa238711cd62858921b7bad4a169ba6a0135c8ddd344',
    ('3/2,7/2,30', 'generic', 1, 1): 'ebf17d350bc28acdc011a0ae223b71aedbd40792e23210c74de6b624d23aca9f',
    ('3/2,7/2,30', 'left', 0, 1): '7e039be0efae5c1863faa6b2818652699b13f1c74dfd40a5f2f91edc852eeacd',
    ('3/2,7/2,30', 'right', 1, 0): 'af3c28d0490790a4738722bfd638f9176412851c4738e225d683c770ae42d9da',
    ('3/2,7/2,30', 'zero_mode', 0, 0): '0aa4317d9add9336c172e6f7218b2eb5b2c747576597eb45b2772e12e780226f',
    ('5/2,5/2,12', 'anti_diagonal', 1, -1): '29f09e0f65eec872f9f77d4690e6f3537caba9ead3b71a81719672593ce907b8',
    ('5/2,5/2,12', 'generic', 1, 2): 'd8bd28cd4c26a79200b40af0da3ea4d9964de31dd17cce0de8367889e4951858',
    ('5/2,5/2,12', 'left', 0, 2): '914498d397457c38c7ec6daa03ddea8cd84c9182a7fa109be65ba096ae433f59',
    ('5/2,5/2,12', 'right', 2, 0): '5b8232a656208630f450c5a7528de6ae33618dd7e4fda64db32b82a3b7f42b6a',
    ('5/2,5/2,12', 'zero_mode', 0, 0): '87f36d78aa7ce15c11e86f1df3198959d5c50213ea3e8b452c7fd08343e5344c',
    ('5/2,5/2,2', 'anti_diagonal', -1, 1): 'f5566a454200c24eeee73f1f1d40f7c1b3b5f99b2318a440d3b00d9c301bca53',
    ('5/2,5/2,2', 'generic', 2, 1): '19e4513ab2697b7047a2eeff59fd387d1a8cc8f1c4daeca57972d096cbd38f20',
    ('5/2,5/2,2', 'left', 0, 3): '8b1241e0829a852a7a0fdfca64ff2e044b543d2fb2d8fd4448f933b2ce0b5fb5',
    ('5/2,5/2,2', 'right', 3, 0): 'b80818c8f9246501d12aef8c8146c996e0692e6b4fc6fb710d28a06b06baf759',
    ('5/2,5/2,2', 'zero_mode', 0, 0): '8317a187bdccdc66388a15e834119c46493f06fcd8fddfea5784d231be5d7b32',
    ('5/2,5/2,30', 'anti_diagonal', -2, 2): 'd15e474816ebd6f094f6af26f5703b299fec08745ad055acc3af0e16b2bdfed3',
    ('5/2,5/2,30', 'generic', 2, 3): '115275bb84050bbb55d376466fc86b308387b6c88c9c22a1b238d1f5af7620ea',
    ('5/2,5/2,30', 'left', 0, 1): 'b00d29ad4d274d93aae702a43775c7305e26b4c4a7bcd42ce1e8d6318ab6cd86',
    ('5/2,5/2,30', 'right', 1, 0): '935e4b24f3084a1cf19b6fc90953bf1223ecf9069730751ffb1bcddad8a1cb2e',
    ('5/2,5/2,30', 'zero_mode', 0, 0): '1855af569c82cfb9db61d49af26408b1ce8fc8d1ead3677177f317bb8dac3146',
}


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_modes():
    for i, key in enumerate(list_families()):
        a, b, lam = key.split(",")
        params = Params(Fraction(a), Fraction(b), int(lam))
        for case, pairs in sorted(fixture_modes(params.alpha, params.beta, params.lam).items()):
            n1, n2 = pairs[i % len(pairs)]
            yield key, case, n1, n2, params


def test_golden_mode_documents():
    seen = {}
    for key, case, n1, n2, params in _golden_modes():
        seen[(key, case, n1, n2)] = _digest(solve_mode(params, n1, n2).to_json_obj())
    assert seen.keys() == GOLDEN.keys()
    changed = [k for k in GOLDEN if seen[k] != GOLDEN[k]]
    assert not changed, f"solve_mode bytes changed for {changed}"


def test_golden_inconsistent_rows():
    # lambda = 31 is not triangular: every widened window is inconsistent
    with pytest.raises(NoSolutionInWindow) as info:
        solve_mode(Params(Fraction(3, 2), Fraction(3, 2), 31), -3, 4)
    exc = info.value
    assert exc.retries == 12
    assert {str(c): (w.m, w.M) for c, w in exc.windows.items()} == {
        "(0, 0)": (-15, 13), "(0, 1)": (-16, 12), "(1, 0)": (-16, 12), "(1, 1)": (-15, 13),
    }
    assert [str(r) for r in exc.inconsistent_rows] == [
        "((0, 1), 14)", "((1, 0), 14)", "((0, 0), 15)", "((1, 1), 15)",
    ]


# ---------------------------------------------------------------------------
# CLI documents, floats and small-y series of single- and double-Bessel modes
# ---------------------------------------------------------------------------

_P30 = ["--alpha", "3/2", "--beta", "3/2", "--lambda", "30"]

CLI_CASES = {
    "solve-latex-generic": ["solve", *_P30, "--n1", "1", "--n2", "2", "--format", "latex"],
    "solve-latex-left-zero": ["solve", *_P30, "--n1", "0", "--n2", "2", "--format", "latex"],
    "solve-latex-anti-diagonal": ["solve", *_P30, "--n1", "-2", "--n2", "2", "--format", "latex"],
    "solve-latex-zero-mode": ["solve", *_P30, "--n1", "0", "--n2", "0", "--format", "latex"],
    "table-3/2,3/2,30": ["table", *_P30],
    "table-3/2,5/2,20": ["table", "--alpha", "3/2", "--beta", "5/2", "--lambda", "20"],
    "combine-T-2-1-2": ["combine", "--preset", "T-2", "--n1", "1", "--n2", "2"],
}

# name -> (exit code, sha256 of stdout)
CLI_GOLDEN = {
    "solve-latex-generic": (0, "0fe2e4b53884be2004b39bd2b7cf8031a58f4b1458d245b55bf2882ce6be45d8"),
    "solve-latex-left-zero": (0, "3ac99821fbb7953f8c277349145f087c5fe6e4247b940576adebf999012a83b7"),
    "solve-latex-anti-diagonal": (0, "a1f4566313e4f30a72fec9d81c22abc4ae54407438b620256137755298605582"),
    "solve-latex-zero-mode": (0, "e053e932c3c9778174eadea936e34153f825380b3faffd7b66b5378d51e18678"),
    "table-3/2,3/2,30": (0, "a154593c36dd2a361d64b303ce91db15a5424c18322de0126dde0345e7eb2348"),
    "table-3/2,5/2,20": (0, "b264d592c0a7ba9888ccc78f718f43555ad9d14d5779ef257877875d30c8801a"),
    "combine-T-2-1-2": (0, "8e65d8faae2a111deca1f943605563f39d40c86c83b12bcbff5cb5e83151a8e9"),
}

# (n1, n2) of (3/2,3/2,30) solved to a file and verified
VERIFY_MODES = {"double": ("1", "2"), "single": ("0", "2")}
# name -> (exit code, sha256 of the verify document with its input path replaced)
VERIFY_GOLDEN = {
    "double": (0, "d355762d38d5cd3cfbf43c8bdec51fb9b38c839d0ac4ef38b3aa72c47892af41"),
    "single": (0, "fc1b03a68d3acaddb6680568eb5fa8f755688f5bf496174a779a97a6817edf51"),
}

# (n1, n2) of (3/2,3/2,30)
FLOAT_MODES = {"double": (1, 2), "single": (0, 2)}
Y_PIN = 0.7
SERIES_ORDER = 3
# name -> (eval_expr and residual at Y_PIN, sha256 of the small-y series of the
# particular part to SERIES_ORDER, its value at y = 1e-3); exact doubles
FLOAT_GOLDEN = {
    "double": (4.869444364256425e-05, 2.3622343779997636e-15,
               "6dc6c878b365acb58367fd5e91c4d1df2b9fa5bda20c1b4a4d1e9cf978f19b3a",
               1959979515310.3708),
    "single": (0.004214470335752731, 2.2583771359465605e-15,
               "68a4531a0c8a337a7ba3bfd4f9fb566f9b4bcf0232c03b22be9b9f684dded80a",
               11950683640138.725),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(capsys, argv):
    from eisenmodes.cli import main

    code = main(list(argv))
    return code, capsys.readouterr().out


def cli_digests(capsys):
    seen = {}
    for name, argv in CLI_CASES.items():
        code, out = _run_cli(capsys, argv)
        seen[name] = (code, _sha(out))
    return seen


def verify_digests(capsys, tmp_path):
    seen = {}
    for name, (n1, n2) in VERIFY_MODES.items():
        path = tmp_path / f"{name}.json"
        code, _ = _run_cli(capsys, ["solve", *_P30, "--n1", n1, "--n2", n2,
                                    "--output", str(path)])
        assert code == 0
        code, out = _run_cli(capsys, ["verify", "--input", str(path)])
        seen[name] = (code, _sha(out.replace(json.dumps(str(path)), '"solution.json"')))
    return seen


def float_pins():
    from eisenmodes.numerics import DEFAULT_ENV, eval_expr, residual
    from eisenmodes.series import small_y_series

    params = Params(Fraction(3, 2), Fraction(3, 2), 30)
    seen = {}
    for name, (n1, n2) in FLOAT_MODES.items():
        mode = solve_mode(params, n1, n2)
        series = small_y_series(mode.particular, SERIES_ORDER)
        seen[name] = (
            eval_expr(mode.particular, Y_PIN),
            residual(mode, Y_PIN),
            _sha(json.dumps(series.terms.to_json_obj(), sort_keys=True)),
            series.terms.evaluate(DEFAULT_ENV, 1e-3),
        )
    return seen


def test_golden_cli_documents(capsys):
    assert cli_digests(capsys) == CLI_GOLDEN


def test_golden_verify_documents(capsys, tmp_path):
    assert verify_digests(capsys, tmp_path) == VERIFY_GOLDEN


def test_golden_floats_and_series():
    assert float_pins() == FLOAT_GOLDEN
