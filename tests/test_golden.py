"""Golden bytes: pinned digests of solve_mode documents.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces) of
``solve_mode(...).to_json_obj()`` for one mode per (family, case tag) of the
embedded fixtures.  Family i uses the i-th compared pair of each case (cyclic),
so merged, same-sign and opposite-sign generic modes all appear.  The
inconsistent rows of a non-triangular lambda and of a triangular one outside
the solvable set pin the pivot order and the inconsistency report as well.  The CLI documents (LaTeX solves, tables, the
T-2 combination, verify), the numeric evaluators and the small-y series of one
single- and one double-Bessel mode are pinned too, and so are the evaluator's
and the residual's doubles at two points of every table mode and of two
large-frequency modes, and so is every source term
of eight modes over all sixteen weight pairs up to 9/2.  The zero-mode path
is pinned from the alpha sums of every method to the assembled n = 0 mode and
the sums documents at convergent, formal, pole and trivial-zero points.  A
refactor of the solver must keep every byte.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from eisenmodes.bessel import expr_to_json_obj
from eisenmodes.fixtures import fixture_modes, list_families
from eisenmodes.homogeneous import solve_mode
from eisenmodes.solver import NoSolutionInWindow
from eisenmodes.sources import Normalization, Params, source_term

GOLDEN = {
    ('3/2,3/2,2', 'anti_diagonal', -1, 1): '88b39c538958ab7043bc5b75f667f9993ddd4790f60314c4d3c34c519a5f42ef',
    ('3/2,3/2,2', 'generic', 1, 1): '4a0aa05471195d246228a07ebfbe86876dfaea3563fe59240166be29d14ab92d',
    ('3/2,3/2,2', 'left', 0, 1): '3c00cc2464d3bf55cfa1fab1be9159bc5792da2183c45678de34a696321a2cd6',
    ('3/2,3/2,2', 'right', 1, 0): '85149f16ec2286ca4660f68418f9ccba2fe301e4a4e0a08b8ce86e7f1b28ea41',
    ('3/2,3/2,2', 'zero_mode', 0, 0): 'f12f64f60cc428c6e73ba1f7de0ced8090ea42ced5ace8995c7c30111dd8c48b',
    ('3/2,3/2,30', 'anti_diagonal', -2, 2): '8ec6393881e8f98d420ab0106c759f9ee4f322e726dac89a69b3f903729cc03c',
    ('3/2,3/2,30', 'generic', 1, 2): 'fa2b5d959076b5deee61ff63208cba18a21609f7dfa06e40149d4f1be38007c7',
    ('3/2,3/2,30', 'left', 0, 2): 'd4121145b1c52bbd1b9e5019c7df8e5cf728f3b9e06411a904ba9fc59c72ba0f',
    ('3/2,3/2,30', 'right', 2, 0): 'ee4ac2a8508b8216b009ad39da6afcdd8867dd946c1e2bcb0bfe6466c2d55063',
    ('3/2,3/2,30', 'zero_mode', 0, 0): 'e069c635e15814f8a1ea7f3980c429ad58501ea7e807f57ceeaa152a691e712b',
    ('3/2,3/2,56', 'anti_diagonal', -3, 3): '5d5ff9eb791c4978d3529749055c2b818e1370e2381e3ef8d942d87976eb6744',
    ('3/2,3/2,56', 'generic', 2, 1): '982e815a85541fa75317e42e281efa679a7f5a2b0e24f331c3dd28fccfb80eea',
    ('3/2,3/2,56', 'left', 0, 3): 'a163ae69eb01cb42c6382a03325b3d6a1a28ed92578470598c60511a98acb6b6',
    ('3/2,3/2,56', 'right', 3, 0): '0a3149f4d710cf0c4448c4c86f35eb9bc33f1908e6aaa04921b6a5cfedfa3fd2',
    ('3/2,3/2,56', 'zero_mode', 0, 0): '4399c0e54288606052bb30d2b899bdd0e2f02aa04194fa53d7fc553aa3c3e096',
    ('3/2,5/2,20', 'anti_diagonal', 1, -1): '98183178d70a43cc41f3ab5ecaf9811faa4d53048c85d3fc8ff3d68d3f0483f5',
    ('3/2,5/2,20', 'generic', 2, 3): '3d36eccde32f2054ad65496dee200b5cdca34ea4e72491d92bce0459851fd9e3',
    ('3/2,5/2,20', 'left', 0, 1): 'd28e7a8d931f46f92b15fabe0ad311c3fe62a769702d615bafca84b13be20296',
    ('3/2,5/2,20', 'right', 1, 0): '6302d7a0813dc394bc964a7ea14317e0322142e19c303e683f78526b6793f2d9',
    ('3/2,5/2,20', 'zero_mode', 0, 0): '16b81c54418558e79f59e8ee770d62e9c87ff3a3601cbe2b6b472cfec99455cc',
    ('3/2,5/2,6', 'anti_diagonal', -1, 1): '9b2e2f34b3089681b299133c1befaadd102f8d92d2336454ff13f1034b3cb10f',
    ('3/2,5/2,6', 'generic', 1, -3): '092cf9f39295880cbb5d552c2ec9874e1aaa66c5b8a843ba1c95b1fc4b7a499a',
    ('3/2,5/2,6', 'left', 0, 2): '32da39f2d2fe44c60d2c795cca5525230048ea137d4d1f260eb77c1bd99077e1',
    ('3/2,5/2,6', 'right', 2, 0): 'c829f0733a7885f17db431685872476c4c5831a4ad3e1f1dbbd793785a8093ad',
    ('3/2,5/2,6', 'zero_mode', 0, 0): '912121826a288ba61254cc50c092d38237bda1bc51486346336918dfb27609ab',
    ('3/2,7/2,12', 'anti_diagonal', -2, 2): 'cda3c909769f52fdf9ea92d70ad65316bc4244f93f751f108c10474271a25306',
    ('3/2,7/2,12', 'generic', 3, -1): '9ddd873fcdfcabba734a561a6169757b4a1750d6c381edc03466bac86baef429',
    ('3/2,7/2,12', 'left', 0, 3): 'd7e0a87c144dc974d0e12a4af88956b30842d46a952552b4b9659d6a9eaa4f89',
    ('3/2,7/2,12', 'right', 3, 0): '947fdc74337f6bed98c6068fa360acc04ae8144304d00f007b21cdca8c305e6c',
    ('3/2,7/2,12', 'zero_mode', 0, 0): 'eab1f182663521b39a35f853195c651b7a492b2ee337d823ee75fcc5cb0db84b',
    ('3/2,7/2,30', 'anti_diagonal', -3, 3): 'a2f8201bf0b8aa9335b280bf2a8e9f6275ea88ab6bf7d235be24842d4b7821df',
    ('3/2,7/2,30', 'generic', 1, 1): 'f29c0463916e6b300091e1119f37124ca347a9f48b6d4bed5442a0723f2102a7',
    ('3/2,7/2,30', 'left', 0, 1): 'c6a2d01518bdcce91114d2f9818d8354bc670156085c9d344dead18614f40291',
    ('3/2,7/2,30', 'right', 1, 0): '8b096bffb9809264bcc39723caa1336db09dd46543748d109267a60a32e92979',
    ('3/2,7/2,30', 'zero_mode', 0, 0): '68bb5cbe2f83e0b0bf966fccc391404ce1cf656a5521dbc6b1a18fa42f02e6e7',
    ('5/2,5/2,12', 'anti_diagonal', 1, -1): '0613fee32455d7be2c647b4419e047bf316e7f8a3bd434796214c5bdd0ce83e1',
    ('5/2,5/2,12', 'generic', 1, 2): '6cf3d1eff65b3e8c54e9962bf9b434e0fad387289766ca70865a8d9b19f74c45',
    ('5/2,5/2,12', 'left', 0, 2): '3d67ea8032c5f7692341c781de9d42080cdaaf405990e7be7686c9ee0e406307',
    ('5/2,5/2,12', 'right', 2, 0): 'e77baafe7052dbd4bbecaa9f44fb95d450d602d3d99452abaa7d8f55a2cea373',
    ('5/2,5/2,12', 'zero_mode', 0, 0): '5809986574f98b69d83b4d7adcf58d98233ca139c4a71535d2eaf619a87e2f2c',
    ('5/2,5/2,2', 'anti_diagonal', -1, 1): '1476338bda5df7b892744bea1cf2399fcaaee6bb9e7846fab8961a81e84a1d44',
    ('5/2,5/2,2', 'generic', 2, 1): '706d9d33f7ee1a74333861876947036684179790361f251ada2ab5fe54b13b97',
    ('5/2,5/2,2', 'left', 0, 3): '446da22fe9d3b48b0b3671a59ecb3a58ca7e94c3cda0c90401a46098b4cdc0fa',
    ('5/2,5/2,2', 'right', 3, 0): 'f5cfc2c6329c5e6e5bc1c7796bab71393415663e73e1722c1ce6e907f1ecc1cb',
    ('5/2,5/2,2', 'zero_mode', 0, 0): '32b8bbe1c31bb2e8596062b42e1a1217f811dd2b8c6b7e3e87815bcf0dd8bb43',
    ('5/2,5/2,30', 'anti_diagonal', -2, 2): 'f4808ed62032061ed7825f22a55a181eafe8f5eea176e55eaabc16cc2ab49df7',
    ('5/2,5/2,30', 'generic', 2, 3): '53e19314299cc59132dd65d10463b0485dd8fc230f5ffaa1592c975153dfa48e',
    ('5/2,5/2,30', 'left', 0, 1): 'ec1ba454fbaa7a974e46703c91cd4a837a4447887eed25da3d2b5196d363ff99',
    ('5/2,5/2,30', 'right', 1, 0): 'fdbd7f8f21132bfd200e58d28767abf075f9a1ac172e86878dee4d25c57ca738',
    ('5/2,5/2,30', 'zero_mode', 0, 0): 'addd1f1deab80447c4b68c47154c7435be2a9acba75c42ebf3f771f8fefdff03',
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
    # lambda = 31 is not triangular: the derived window's system is
    # inconsistent, and the failure reports that window with the constraint
    # rows left unpivoted with a nonzero right-hand side, in row order: here
    # the four rows above the window
    with pytest.raises(NoSolutionInWindow) as info:
        solve_mode(Params(Fraction(3, 2), Fraction(3, 2), 31), -3, 4)
    exc = info.value
    assert exc.retries == 0
    assert {str(c): w for c, w in exc.windows.items()} == {
        "(0, 0)": (-4, 1), "(0, 1)": (-4, 1), "(1, 0)": (-4, 1), "(1, 1)": (-4, 1),
    }
    assert [str(r) for r in exc.inconsistent_rows] == [
        "((0, 1), 2)", "((1, 0), 2)", "((0, 0), 3)", "((1, 1), 3)",
    ]


def test_golden_inconsistent_rows_of_a_resonant_family():
    # lambda = 20 is triangular but outside the solvable set: the
    # inconsistent constraint rows are again the four rows above the derived
    # window
    with pytest.raises(NoSolutionInWindow) as info:
        solve_mode(Params(Fraction(3, 2), Fraction(3, 2), 20), 1, 2)
    exc = info.value
    assert exc.retries == 0
    assert {str(c): w for c, w in exc.windows.items()} == {
        "(0, 0)": (-3, 1), "(0, 1)": (-3, 1), "(1, 0)": (-3, 1), "(1, 1)": (-3, 1),
    }
    assert [str(r) for r in exc.inconsistent_rows] == [
        "((0, 1), 2)", "((1, 0), 2)", "((0, 0), 3)", "((1, 1), 3)",
    ]


# ---------------------------------------------------------------------------
# Source terms of every weight pair up to 9/2
# ---------------------------------------------------------------------------

SOURCE_WEIGHTS = [Fraction(w, 2) for w in (3, 5, 7, 9)]
# one mode per case tag, plus merged, opposite-sign and large frequencies
SOURCE_MODES = [(0, 0), (0, 5), (7, 0), (3, 4), (2, -7), (5, 5), (-6, 6), (150, -149)]
# (alpha,beta, n1, n2) -> sha256 of [case_tag, full source] at lambda = 30, unit normalization
SOURCE_GOLDEN = {
    ('3/2,3/2', 0, 0): 'bfba870e4aae07a0a94d5167a4d6f00cde7890a6a7e3ba754ad91495679b488f',
    ('3/2,3/2', 0, 5): '776cfe187eec164ae8168b9c8d4c58ba9e68d9dc8e7fe05588c2e1e7b5b88bf4',
    ('3/2,3/2', 7, 0): '81f54a77bf320ba7d400f62c40b7502fd6c75c23ecd639ef588596faa9c6bf22',
    ('3/2,3/2', 3, 4): '8d75875e292fa183a848eb4c422f520b5ea5116c0fc7d64a5c381e36a9e09438',
    ('3/2,3/2', 2, -7): '761ac9fb56dfa5fc24cf8a0cf9301c4d8fe84e4c98d03cbc97c02e9eb6855c63',
    ('3/2,3/2', 5, 5): 'b8e96a989902520d9d50c82ed408d57bf4050a376c65047efece4d24b9fbeab8',
    ('3/2,3/2', -6, 6): '6c1b87d52ea82a1e34247ca5ca510a429a55264f2ce7c6ff88ad58421b1a5ccf',
    ('3/2,3/2', 150, -149): '0728566ef9369193646f8277cc33511d7160d018e32692d9f466090566d2b821',
    ('3/2,5/2', 0, 0): 'a78fa6d717b2e9c817b007e5b531ce063b7a154dd9e6c9993cc607b01f745ede',
    ('3/2,5/2', 0, 5): '58fb2111fb4ee648e59d0149ed341be4c9877a2ed3acead6ac4af9d22489216e',
    ('3/2,5/2', 7, 0): '6478dc20982ac7d5465bd9342a1560d06b949abdf06123d0d081ab1d626625fd',
    ('3/2,5/2', 3, 4): 'fd67771e2ef4cad989e91f6d8655d1805aacc14cb7dd77003174e62324229ef4',
    ('3/2,5/2', 2, -7): '26f02fed77960eae4a1f3fda2fc40a31dc59c3adb2a1d5b620e8a88ef71ed3b5',
    ('3/2,5/2', 5, 5): '88a175b3effd23bbc9ef5a9c259355e0d1c1c9814ef50ead3f84a34d0eb16a99',
    ('3/2,5/2', -6, 6): 'f830a602a490fbd9e8aece684d48bd469767987415b6431a1274b1d7e79a8966',
    ('3/2,5/2', 150, -149): 'c8860b0b07fad56c1c8e0ccf639df21bbfa05a0c4368c5e4d2f060e9847a234d',
    ('3/2,7/2', 0, 0): 'b916b50c934574867fabfce52553983b54d936fbb0d5655db642f3acd3f4bfc7',
    ('3/2,7/2', 0, 5): '1f679a8923851829ca63dbd568513f488a4eb94356123c4cb9c5eeaddf5c0432',
    ('3/2,7/2', 7, 0): 'd6cbe90c1d0c5609facd30e3762a690778d6ce0e42171d9f625646ac66e1de3d',
    ('3/2,7/2', 3, 4): '3cab14105777ebd8bb26c765e6447ef54ce837e439fe10ab0c5fc3cb0d4d77bf',
    ('3/2,7/2', 2, -7): '2cf054e000efb2d0e3025c461cbb9d28ecac7dcbf8ccfb297a2250a1cb3af599',
    ('3/2,7/2', 5, 5): '9cf575d69217dea95a753d7eb1e7769469130116e5e201332d7e48b1298f20c7',
    ('3/2,7/2', -6, 6): '48b466961ffd1fa3c5db3f86115d63c38b320a3bc48c7f8af1316db8fb18b2c3',
    ('3/2,7/2', 150, -149): '72d955a36e7f071a320623d96ccfc11a6305f7dcb0d6772ae338edfca71ab524',
    ('3/2,9/2', 0, 0): '65076d10c1754af8e7ad6b971f40fcb731402c59d60775d2716467328eb4493b',
    ('3/2,9/2', 0, 5): '01b5eff4d2f50adebd203da254a0953da7f22d9fdd1e89508ee81d30a64cf43c',
    ('3/2,9/2', 7, 0): '4eaa14d73baf75b9b98b8a496f3984ccac1e0db9a5ff01cdddfbeabf29df4a02',
    ('3/2,9/2', 3, 4): 'fa78fc65bda6646351acc0b9ec25860b12e95dfe56ffc21d03f27714a4d22048',
    ('3/2,9/2', 2, -7): '18c2d30863c336a8cae07b22d0489bd95c4b5bb4606547d24888d10f3debda5e',
    ('3/2,9/2', 5, 5): '59b20f0080d8219bf9aa6e732de310373dbe3dab5ab3d78530a1acf3bed92c30',
    ('3/2,9/2', -6, 6): '71c496b0a062c264b4be96f11f94f0272acaf252f858cd7dcb3162a9cc52e881',
    ('3/2,9/2', 150, -149): 'ae87ab928f112865ccecdfa0404d7ef6dd8fa23851372d708aca273fbe14661a',
    ('5/2,3/2', 0, 0): 'a78fa6d717b2e9c817b007e5b531ce063b7a154dd9e6c9993cc607b01f745ede',
    ('5/2,3/2', 0, 5): '3b243bbee4b7b0ded099635854376c8ed84959aa29d05fd376ad4e8b21c6d742',
    ('5/2,3/2', 7, 0): 'ab6da371e33c71f05db9aa2cc26d64cd5a50f7803bc1e695bb69ca28c6dd5fb1',
    ('5/2,3/2', 3, 4): '508c3e15376c4476548ab83b59069d81305539c1e89c37dfffa6e6a20cd0d7c8',
    ('5/2,3/2', 2, -7): 'a9b751c8f06e955e3075a33fcbddd9731bae56693bea8faaa3d2864bb3c4b04c',
    ('5/2,3/2', 5, 5): '88a175b3effd23bbc9ef5a9c259355e0d1c1c9814ef50ead3f84a34d0eb16a99',
    ('5/2,3/2', -6, 6): 'f830a602a490fbd9e8aece684d48bd469767987415b6431a1274b1d7e79a8966',
    ('5/2,3/2', 150, -149): '6944a811d07fa426765a51dc3632a7a59ddb91e31e9efe8ae21ac1f70ae6b20d',
    ('5/2,5/2', 0, 0): '277a40e39513907a6871f08e99a36cd1f5e7a965a657163d93c48865695885b9',
    ('5/2,5/2', 0, 5): '19ae2ab98e1ef61fd35594dc309daad467814a6e67fcf21001a5ac76bb27eb90',
    ('5/2,5/2', 7, 0): 'eea3f0d8d1cbb964cbcb1166d7e316db5fc999f4389a383eacaee2f266703e70',
    ('5/2,5/2', 3, 4): '29a6af9c96fef6c5768ba0c76132f0149b4a7c2475e8a028ed188c5f938245cf',
    ('5/2,5/2', 2, -7): '187bdbd53d82ff746e7d593a53218869611859a8f26a889a4cd22af6bfab4b15',
    ('5/2,5/2', 5, 5): '1fd46bcd94a04db7941e4f812e7a0739ffeb193ca47d2b5c8146b0e7565d408a',
    ('5/2,5/2', -6, 6): '2b36e19d8627477cc4defb7c4495456aa78ea5811c37ba74047ca00352aae834',
    ('5/2,5/2', 150, -149): '63e37eaca3eb35ff08ee3bc6d409746189b2871130df94ce43c024c8ffae74f9',
    ('5/2,7/2', 0, 0): 'e0178b05be6e4b08f3a7260193a0c584b29949ef213744c7f8de9c7e67bb1c22',
    ('5/2,7/2', 0, 5): 'ad669071ee41e24a883eb8924f6831a32f2bc806b2250baf3f5c7339b5d4fbac',
    ('5/2,7/2', 7, 0): '72dcb9d6eb155cb9fd5793c404752ed5641a8e10c9afbbc228d8e1e7b5bf5fee',
    ('5/2,7/2', 3, 4): 'd266c9b7cd9302f1e17a03d17a6ea794ee6f06c3c35df7dd43b31c0d3dd5edac',
    ('5/2,7/2', 2, -7): 'ffdf1dabd2aedd52ec18ab2277815aed0addfa8fafbd256940ae2a4f0c84b460',
    ('5/2,7/2', 5, 5): 'f3eb54eb374da2235549ec6bf6f430ad38b26cd50c4562b8932a4f8455bb65c0',
    ('5/2,7/2', -6, 6): 'f6dd00125f1461c3f82cf6cd0bd66f287c7db1317f56cab82f735470378602f4',
    ('5/2,7/2', 150, -149): '653971af5d7487966ed40c174093f6df33cd7d1c3532b7df8283f6ad356e9037',
    ('5/2,9/2', 0, 0): 'def8ac92c6970f1ed3049bb847c36faebd425ee43491e59de6981482d01326b5',
    ('5/2,9/2', 0, 5): '366a44e9ce1f6f2934a14576c25936a3676e2a72293fefb689c4ee860838d07c',
    ('5/2,9/2', 7, 0): 'e7407247c3b4f7c29f03db236455a976f70cb08c98a989b67cc517ab14ebec47',
    ('5/2,9/2', 3, 4): '27741ac9465a04ccb5ff3331d6d2d5a04e1fd08f66a8591cefbb6899fb280a6a',
    ('5/2,9/2', 2, -7): '37adfe2c2e22dfc02b4c56a84728992616df7181ebb4024b9cbb46ea8fdd797f',
    ('5/2,9/2', 5, 5): '312bcde8962eee45a38db902802626c327e0847e98e2c870a7b54415e4fd0b71',
    ('5/2,9/2', -6, 6): '416704225aa28727f578b94f87d31e6377b835da1c93415c8b327207f7077c4a',
    ('5/2,9/2', 150, -149): '2f5e39cead137fe76d328a608bea231f00a6a84368168e0c510520c667cc90ef',
    ('7/2,3/2', 0, 0): 'b916b50c934574867fabfce52553983b54d936fbb0d5655db642f3acd3f4bfc7',
    ('7/2,3/2', 0, 5): '056ed25983b0d86cafd133520725525df63cdf784e4191f4e69d993a058bd3bb',
    ('7/2,3/2', 7, 0): '08ebc81ed007357c06e79502abf0d9bbf8c5d35822d68ead74d270b992559bc4',
    ('7/2,3/2', 3, 4): 'b135ee42d3f59e7034a2e2d891dd940fa883586ba7b9c9120b283e70b49713ae',
    ('7/2,3/2', 2, -7): '89496723d4d49c39556985581180e3fc64e38988840295eb115c18fb9ca570d0',
    ('7/2,3/2', 5, 5): '9cf575d69217dea95a753d7eb1e7769469130116e5e201332d7e48b1298f20c7',
    ('7/2,3/2', -6, 6): '48b466961ffd1fa3c5db3f86115d63c38b320a3bc48c7f8af1316db8fb18b2c3',
    ('7/2,3/2', 150, -149): 'd7f6b0e22eadcd92105cdb16dc78224c871a317927b37f5c8ae293bcb24a4c7f',
    ('7/2,5/2', 0, 0): 'e0178b05be6e4b08f3a7260193a0c584b29949ef213744c7f8de9c7e67bb1c22',
    ('7/2,5/2', 0, 5): 'd0175bcfffa974e71028706e42aadbe2199c372a882f62e6dea969fb74a2a0b8',
    ('7/2,5/2', 7, 0): '6fe94967d80872a59e72d1e0456c4b0adda3e9f3dfeb73cb460672ae0e740edc',
    ('7/2,5/2', 3, 4): '9d0a1b36d8d3c5a6e66924115156e72846a86f85b5a7eb93653a841b6cbcde6b',
    ('7/2,5/2', 2, -7): '289841eea6583c75a308e2b5ffc3db036dac3976f57e464d35b63db3093832ce',
    ('7/2,5/2', 5, 5): 'f3eb54eb374da2235549ec6bf6f430ad38b26cd50c4562b8932a4f8455bb65c0',
    ('7/2,5/2', -6, 6): 'f6dd00125f1461c3f82cf6cd0bd66f287c7db1317f56cab82f735470378602f4',
    ('7/2,5/2', 150, -149): '9e2462d9df7cd41869820fe8734dd3e79ea5294c576c0989fbd8f960536dd0b2',
    ('7/2,7/2', 0, 0): '2e2701d145b2164cd9effb6a5230e62ef1ce320c6e67ee0bb5035f871de91229',
    ('7/2,7/2', 0, 5): '20d75abe4c8138637ace1cd146f72d6d16355073b09b819c66cac7582360a7d1',
    ('7/2,7/2', 7, 0): '9573ad80fc935a2640da09838e7678b8f41d830a39fb200808a179073834696a',
    ('7/2,7/2', 3, 4): 'dac8ae6218a75016ca790aabfcc80104e8b6d832476a483959fc7a964a7f5f8b',
    ('7/2,7/2', 2, -7): '00c6d1cab30fedf4a6a710fa876cabc8afdad56c6ad407329148a08fe975cc69',
    ('7/2,7/2', 5, 5): '1c5b5a69567b94a9a1a750b984f1a6f3c6ea6d1b796d6cf28006951c87e337a9',
    ('7/2,7/2', -6, 6): 'c2f7e2d807a0d3077b0e8dc0983adf0fe5ba0654597679dc9866af582992494e',
    ('7/2,7/2', 150, -149): '3d06573ebf9d996494117e2cc98ef1caabbc67df3e38841c5a4f04c4957a5afa',
    ('7/2,9/2', 0, 0): 'aa94342670410ee3d0025872aa3583ad24e74881836c313dc41275c5b7aaa3f3',
    ('7/2,9/2', 0, 5): '0d3be1d0590fb1a809f5d29d34d9290d8f8510044db0839cb7f6c4c3d8133e76',
    ('7/2,9/2', 7, 0): '757879857c26205166d9a25bc34884472c13f90be2a366fa3d8ac138020a2573',
    ('7/2,9/2', 3, 4): '563818f97c486d39e50821b6f761dc272b73f9b33fa01fa643351cb848d7afa2',
    ('7/2,9/2', 2, -7): 'e8d2b326aea1132cf9c509c50e886474a21f58cdaff0ca76165756e1b1b4fc20',
    ('7/2,9/2', 5, 5): '27d6db800c81ae59f6605b3a12a192041025468525856f78cdb63d16e7451352',
    ('7/2,9/2', -6, 6): '39991f0faa9f19dc27376b763b593356df26e1c52b24daa16936fb5f0b33eeed',
    ('7/2,9/2', 150, -149): 'ec2ad67b8368e9f53b003b0f279e19cddab6f1e5eacfc97efad1a9c3663fc500',
    ('9/2,3/2', 0, 0): '65076d10c1754af8e7ad6b971f40fcb731402c59d60775d2716467328eb4493b',
    ('9/2,3/2', 0, 5): 'fe9a3cd252b43a33acb70dcc4b5457053bbc1d1e7cef939520ab4e6837092c6b',
    ('9/2,3/2', 7, 0): '5277d20c331164c936961ca9e7f0428cfc2e96892341b5c7d5a61f0c92bb348d',
    ('9/2,3/2', 3, 4): 'f3bca9499849e5c0f0cfb91b8d099c4f79b3b96884171f1be5adfde654afe453',
    ('9/2,3/2', 2, -7): '16f9dc36762960bc16bf4323a2c2e9bf958aed3e12f2416e94583aca6f198a75',
    ('9/2,3/2', 5, 5): '59b20f0080d8219bf9aa6e732de310373dbe3dab5ab3d78530a1acf3bed92c30',
    ('9/2,3/2', -6, 6): '71c496b0a062c264b4be96f11f94f0272acaf252f858cd7dcb3162a9cc52e881',
    ('9/2,3/2', 150, -149): '8e4d49f3813edcafa148184fe41d09c560c9a92db31c920b204c30b70babc5b0',
    ('9/2,5/2', 0, 0): 'def8ac92c6970f1ed3049bb847c36faebd425ee43491e59de6981482d01326b5',
    ('9/2,5/2', 0, 5): '168a5d468b727504548ec3b62baec955daae3d257474d7c2c909e3bfe4173317',
    ('9/2,5/2', 7, 0): '4df5214f740d89ddd948d718e35f30c24fa61807e4a49ca732db83f5d8b3fb3a',
    ('9/2,5/2', 3, 4): '9f7c85d72c902570d6e8c23e809185fd079e799d9ef82030d6cb4e3a2fa21b82',
    ('9/2,5/2', 2, -7): '0e184565dce37f2c5e59f7eb828558dcd4bc7ee8125743bd8cd50a8ccb9be184',
    ('9/2,5/2', 5, 5): '312bcde8962eee45a38db902802626c327e0847e98e2c870a7b54415e4fd0b71',
    ('9/2,5/2', -6, 6): '416704225aa28727f578b94f87d31e6377b835da1c93415c8b327207f7077c4a',
    ('9/2,5/2', 150, -149): '0a4b49688922e8770cb23ebe4bf9d5900190152462079d081f389ff8cb801e31',
    ('9/2,7/2', 0, 0): 'aa94342670410ee3d0025872aa3583ad24e74881836c313dc41275c5b7aaa3f3',
    ('9/2,7/2', 0, 5): '106786e4e70b30dcac5b3044054f5650c6f2db015ed88dbf1d1f5b03f54ffd8d',
    ('9/2,7/2', 7, 0): '83cfb9121d8b2a24dbc9fe0f91791000f94607b8d52eb18e33f60aa7fcf35fbd',
    ('9/2,7/2', 3, 4): 'b4723688270cdb37d8d348b0386b2ae218b2254081965928386c7871559ae3b7',
    ('9/2,7/2', 2, -7): 'e3b61fdbee48dfcc29ac096ed932e4d615d20900491dcfe40348bd53e0b70bf6',
    ('9/2,7/2', 5, 5): '27d6db800c81ae59f6605b3a12a192041025468525856f78cdb63d16e7451352',
    ('9/2,7/2', -6, 6): '39991f0faa9f19dc27376b763b593356df26e1c52b24daa16936fb5f0b33eeed',
    ('9/2,7/2', 150, -149): '046f8c7f4c3a581016fd07b202b73f267e4050443adf55ea2fffd8a7437398a9',
    ('9/2,9/2', 0, 0): 'a82db042a3870535df69bb451812f9ff47dec7c5c15bb0f1c3aa6d518ef7fa84',
    ('9/2,9/2', 0, 5): '37808952e851c271459a583babdd95970d1251e2d55e1f95106ce1b67a1006bb',
    ('9/2,9/2', 7, 0): 'bdac993c01ad754c30bbd63fcaf395cac69847c46b740ad62b13a65cc7d386f7',
    ('9/2,9/2', 3, 4): 'c43046dae165a826e4708b182b7b776d327bab33a1e2302076e292260f05a172',
    ('9/2,9/2', 2, -7): '0cdad1cf7f944341f69df8cd278c21a51f18306d8d2aab45df1ac7e6dbb311c3',
    ('9/2,9/2', 5, 5): '10a2749f56359249e795700b99694f188878640b445eff79f550354a3a0726af',
    ('9/2,9/2', -6, 6): 'ccd558102d596f61ae8f6a2568fcbb4b3557a6dce054ac170ebdd385a46356f6',
    ('9/2,9/2', 150, -149): 'b87c601412149818988a2d9f70042700ed977928382622d22675b35b01d18f14',
}


def test_golden_source_terms():
    seen = {}
    for a in SOURCE_WEIGHTS:
        for b in SOURCE_WEIGHTS:
            params = Params(a, b, 30, Normalization.UNIT)
            for n1, n2 in SOURCE_MODES:
                st = source_term(params, n1, n2)
                seen[(f"{a},{b}", n1, n2)] = _digest([st.case_tag, expr_to_json_obj(st.full())])
    assert seen.keys() == SOURCE_GOLDEN.keys()
    changed = [k for k in SOURCE_GOLDEN if seen[k] != SOURCE_GOLDEN[k]]
    assert not changed, f"source_term bytes changed for {changed}"


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
    "combine-T-2-1-2": ["combine", "--n1", "1", "--n2", "2"],
}

# name -> (exit code, sha256 of stdout)
CLI_GOLDEN = {
    "solve-latex-generic": (0, "f7eb3eb68c4116464fbefde88d870d7829b8e6221202bb2607a8598c1ad2d714"),
    "solve-latex-left-zero": (0, "92900c233b4e85382855ab7161c6470fa61857a44845603d4c6529a4e88daf98"),
    "solve-latex-anti-diagonal": (0, "75998902d4e428aafcd4ce0a50e0ba00e6546125e18daa0bc52004e712a637be"),
    "solve-latex-zero-mode": (0, "05663f480a370c50d2da685a2e8e8aba274277fe49fe80b9146c55b4b40ca3ab"),
    "table-3/2,3/2,30": (0, "a154593c36dd2a361d64b303ce91db15a5424c18322de0126dde0345e7eb2348"),
    "table-3/2,5/2,20": (0, "b264d592c0a7ba9888ccc78f718f43555ad9d14d5779ef257877875d30c8801a"),
    "combine-T-2-1-2": (0, "6cc5054e551efd16a24ae4323780fb86d672e0138b235384ea2c80c6d1a2b10e"),
}

# (n1, n2) of (3/2,3/2,30) solved to a file and verified
VERIFY_MODES = {"double": ("1", "2"), "single": ("0", "2")}
# name -> (exit code, sha256 of the verify document with its input path replaced);
# an exact verdict that passes carries no numbers, so both documents are equal
VERIFY_GOLDEN = {
    "double": (0, "32654b731e70d5370d0a0798527c3d85e87e021240942231230ec490b696f7f3"),
    "single": (0, "32654b731e70d5370d0a0798527c3d85e87e021240942231230ec490b696f7f3"),
}

# (n1, n2) of (3/2,3/2,30)
FLOAT_MODES = {"double": (1, 2), "single": (0, 2)}
Y_PIN = 0.7
SERIES_ORDER = 3
# name -> (eval_expr and residual at Y_PIN, sha256 of the small-y series of the
# particular part to SERIES_ORDER, its value at y = 1e-3); exact doubles
FLOAT_GOLDEN = {
    "double": (4.869444364256429e-05, 7.754823337015194e-16,
               "6dc6c878b365acb58367fd5e91c4d1df2b9fa5bda20c1b4a4d1e9cf978f19b3a",
               1959979515310.3708),
    "single": (0.004214470335752738, 9.67277065217906e-16,
               "68a4531a0c8a337a7ba3bfd4f9fb566f9b4bcf0232c03b22be9b9f684dded80a",
               11950683640138.742),
}


# every embedded table mode, as the table command compares them, and two
# large-frequency UNIT modes: (3/2,9/2,r=6) at (2, -76), (7/2,9/2,r=8) at (150, -149)
ORACLE_EXTRA = [(Params(Fraction(3, 2), Fraction(9, 2), 42, Normalization.UNIT), 2, -76),
                (Params(Fraction(7, 2), Fraction(9, 2), 72, Normalization.UNIT), 150, -149)]
# sha256 of the exact reprs of eval_expr(particular, y) and residual(mode, y),
# at 0.5 and 1.5 over 2 pi max(|n1|, |n2|) (0.7 and 1.3 for the zero mode)
ORACLE_GOLDEN = "8dcb548b5c494a1817b251ab536007ecaee448e3a67215b06b0d09c58c7118ef"


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


def oracle_digest():
    from eisenmodes.numerics import eval_expr, residual

    modes = []
    for key in list_families():
        a, b, lam = key.split(",")
        params = Params(Fraction(a), Fraction(b), int(lam))
        for _, pairs in sorted(fixture_modes(params.alpha, params.beta, params.lam).items()):
            modes.extend((params, n1, n2) for n1, n2 in pairs)
    lines = []
    for params, n1, n2 in modes + ORACLE_EXTRA:
        mode = solve_mode(params, n1, n2)
        top = 2 * math.pi * max(abs(n1), abs(n2))
        for y in (0.5 / top, 1.5 / top) if top else (0.7, 1.3):
            lines.append(f"{params.describe()} {n1} {n2} {y!r} "
                         f"{eval_expr(mode.particular, y)!r} {residual(mode, y)!r}")
    return _sha("\n".join(lines))


def test_golden_cli_documents(capsys):
    assert cli_digests(capsys) == CLI_GOLDEN


def test_golden_verify_documents(capsys, tmp_path):
    assert verify_digests(capsys, tmp_path) == VERIFY_GOLDEN


def test_golden_floats_and_series():
    assert float_pins() == FLOAT_GOLDEN


def test_golden_oracle_doubles():
    assert oracle_digest() == ORACLE_GOLDEN


# ---------------------------------------------------------------------------
# Zero-mode alpha sums
# ---------------------------------------------------------------------------

# family -> sha256 of the canonical JSON of zero_mode_alpha_sum(params).to_json_obj()
ALPHA_SUM_GOLDEN = {
    "3/2,3/2,2": "df94007e0045f6fd5a6522045f1927ac1b6f8e08f137dbf1aadf4048fe78066d",
    "3/2,3/2,30": "14c0a9014fd8715f85ffe07cda163dc9dcfef394216018dc5222cdc2b1fbbf12",
    "3/2,3/2,56": "77fda73e7346d510950a97ac11ff5d37c8cc18869644be1359b8df6ba85cdb45",
    "3/2,5/2,20": "9a200228ce121971eb43cb2f7fe726a7bd5c9782db51d2652024a19d825a068d",
    "3/2,5/2,6": "998374eae9b05e8b7ca9a0f5c8d4acd856070c807a7abf3335d391ec2d1db1c8",
    "3/2,7/2,12": "aa7e832dfbb48b22aca9772f1ab4e2d1015a417351643fe9d9fcacac7a150b0f",
    "3/2,7/2,30": "b3a95d4a543932e223c7382f6fe9daaa0b9e7e51698886cc91e715232a1cda10",
    "5/2,5/2,12": "afa2900659c3036cd006046cc54624aa2f402c731811da30a6985b9045ff7e59",
    "5/2,5/2,2": "77411fe7ebff08ccb207fc6e58dc5bd4a0981ca6f807322cd99bea170157969b",
    "5/2,5/2,30": "53ed10c0ecc375c0301c815cbdc188d76abfca879e308104af63aadfac263688",
}


def test_golden_alpha_sum_documents():
    from eisenmodes.homogeneous import zero_mode_alpha_sum

    seen = {}
    for key in list_families():
        a, b, lam = key.split(",")
        params = Params(Fraction(a), Fraction(b), int(lam))
        seen[key] = _digest(zero_mode_alpha_sum(params).to_json_obj())
    assert seen == ALPHA_SUM_GOLDEN


# ---------------------------------------------------------------------------
# Every alpha-sum method, the zero-mode assembly and the divisor sums
# ---------------------------------------------------------------------------
#
# Pins marked * are of inputs that raised ValueError while the convolutions
# divided by a trivial zero of zeta; they were captured from the code that
# handles those zeros.  The four sums-6,4,4 pins were re-captured when the
# closed forms became limits read off each zeta factor's leading Laurent
# term: their closed form, latex and numeric went from null, null and "nan"
# to 0 and pi^4 zeta'(-6)/180, and their partial sums kept their bytes.  Every other pin was captured before the zero-mode path
# was reduced to one record per step.  The pins of alpha-sum documents and of
# zero modes (here, in GOLDEN and in CLI_GOLDEN) were re-captured when the
# alpha00_choice field was deleted and the zero mode's note shortened to
# "alpha_0,0 is a free constant"; with that field stripped and that note
# normalised, the earlier documents are byte-identical to the new ones.

# (family, normalization, method) -> sha256 of the canonical JSON of
# zero_mode_alpha_sum(params, method).to_json_obj(); the unit families have a
# log n part in their alpha shape
ALPHA_SUM_METHOD_GOLDEN = {
    ('3/2,3/2,2', 'published', 'FormalRamanujan'): '01eaff6432c039c2727abb39b832989f796632931ea38d9d272aa42721a0b53d',
    ('3/2,3/2,30', 'published', 'FormalRamanujan'): '28bc6c646798562b521512e1896f3dc85857020c6e46339b7be96be1697e726c',
    ('3/2,3/2,56', 'published', 'FormalRamanujan'): '9d4a9ffe55e714936ef848414ac4eef340b5bd4fb2091d56e267068901c0e1a5',
    ('3/2,5/2,20', 'published', 'FormalRamanujan'): 'ecd97172637f16fee8956ac38021b91fb17261b8a8985ac86af64594053aa0a4',
    ('3/2,5/2,6', 'published', 'FormalRamanujan'): '4e641edfa308aecc2265c499f7b9c315077e06962c6086194819decb329deaca',
    ('3/2,7/2,12', 'published', 'FormalRamanujan'): '668d0883ed58a5851ada4a6283001782efa57bb35b70259b6b55204e00818d0c',
    ('3/2,7/2,30', 'published', 'FormalRamanujan'): '95790c50c0187a3dd09b8f077a141c491cba1b611904bebcb481044b5ac163db',
    ('5/2,5/2,12', 'published', 'FormalRamanujan'): '7bfd2fa4e3e6b7931d185b2784b71306af7d64655f54416c41e70caddd2e2f4c',
    ('5/2,5/2,2', 'published', 'FormalRamanujan'): 'f77b5aeb6bd6bf3d9b4db7718b3c9b7efdd6e13af43c1ff6cd3882b13cc42320',  # *
    ('5/2,5/2,30', 'published', 'FormalRamanujan'): '142c493af138c5769a7bbcf1a89a87de55498dc1a33b3bbbf8f3f297b1d869aa',
    ('5/2,7/2,6', 'unit', 'RamanujanExact'): 'bb14089ff8125ec1624cd877d33d83cd3e7ba1f984e2e8944761c0ebf60b994b',
    ('5/2,7/2,6', 'unit', 'FormalRamanujan'): 'd8cd5cc340db2821a6776496f240ffc7b2bb6a82a3875ee2635a5bef6ec4affa',  # *
    ('7/2,9/2,6', 'unit', 'RamanujanExact'): '46d34c1aa55ee30244595f4ad61e98bdb09ff429277a178d0f7b4a5541338e9f',
    ('7/2,9/2,6', 'unit', 'FormalRamanujan'): '66210339d838346921f7b1b657fca52097278bf57fee5a6afc2e3961cbe114c0',  # *
}

# (a, b, s) of the pinned sums documents: convergent, formal, at a zeta pole
# (2,2,5 and 1,3,4) and at trivial zeros of zeta (the last four)
SUMS_POINTS = [(2, 2, 8), (0, 0, 4), (2, 4, 8), (2, 2, 4), (1, 3, 4), (2, 2, 5), (0, 0, 2),
               (4, 2, 4), (6, 4, 4), (4, 4, 6), (6, 2, 6)]
ZERO_MODE_FAMILIES = [("3/2", "3/2", "30"), ("3/2", "5/2", "20"), ("5/2", "5/2", "2")]

# name -> (exit code, sha256 of stdout)
ZERO_MODE_CLI_GOLDEN = {
    'solve-n0-3/2,3/2,30': (0, '1ee911879d69c7ac8af2fce279a9ebd8287f65384fffc09699f16671fa5ff9ab'),
    'solve-n0-3/2,5/2,20': (0, 'b478f60f743ee1b222474d13b1b7ca73b85d4d000985d4220d93b4604bd2ecbb'),
    'solve-n0-5/2,5/2,2': (5, '18d19a9cf242705ea85c6ef1461cd16f95ef2ac58928ba2b013726da34a95a93'),
    'sums-2,2,8': (0, '2f2e8dfac8d43a3db3243920a1b2872619f8b495d55b8831c77d18cc505ac960'),
    'sums-2,2,8-limit': (0, 'a0c41947a58dfe22ec33c4c1e3fa435b4649ffce87ce16cfe4e716a10fd7bd62'),
    'sums-2,2,8-log': (0, '7d8ee201697565fb6c6f5e434814b7e54789c2838d45178626b5a2969c814f23'),
    'sums-2,2,8-log-limit': (0, '702d11e2de848a4e9eb6059470210c73276667e3c5167967ea29920b10389009'),
    'sums-0,0,4': (0, '0783b2a18f6464033aebc7dc6ecb27ed0f3e4c6f645e1e41b5c9ae780cb67d20'),
    'sums-0,0,4-limit': (0, 'dcac2efba4f75a31922c030fa0ed87baa1e4a82e048221bb5db89d5876a3ae89'),
    'sums-0,0,4-log': (0, '8b05165e54e6e28eaf0cf8800204dfac098995d606f6c14253f3207be4cf3eb7'),
    'sums-0,0,4-log-limit': (0, 'bc0f8f75e389665738fb86627e09fff237a3dd3d81d95975d9fee3dd5314b80d'),
    'sums-2,4,8': (0, 'cc3e7f8157369a733db83c96bbbfec4204114ff637cff4030c472af9bb127bcb'),
    'sums-2,4,8-limit': (0, '04b97dd63b1f1fef26cfdf8ac429b06227ceb7ebe3b30939d13ddb4ffb282219'),
    'sums-2,4,8-log': (0, '70bcb55771866f510fccb0ad39ba8754cef65f9d3f032511ed91ff68dbabd589'),
    'sums-2,4,8-log-limit': (0, '11e7f663e429f0d0996424c45e46adaad9766df5e6c790c785a86a347ecb5b73'),
    'sums-2,2,4': (0, 'd815f1bcf249277d0d72622b6ff6899b1c43660705440f23aaa3d1f05b0dae55'),
    'sums-2,2,4-limit': (0, '525612c4048261fe38b71f34dfa0c124897a1b9bcf22bea07719f4911045e0dc'),
    'sums-2,2,4-log': (0, '2338d686bfbd4790a55e55534e30916585857ac78df548e6bf124dec1ba1436b'),
    'sums-2,2,4-log-limit': (0, 'a031cb5aa133d83ff54f9ed1af63ec81cd236f4b11ee03fa3f69b6af07d34a7a'),
    'sums-1,3,4': (0, '784e6ff512dec4c08ecf28290f41242267fc966044436a9aef87be09562d4a81'),
    'sums-1,3,4-limit': (0, '47c67db9883615680e1356cf9846e9f2a8223d6226a8f5d5d500d5eb70992621'),
    'sums-1,3,4-log': (0, 'a7cf8311d50104b4c24df494e88a7bc010c83cbcfddcef22733c9fddf0fb181a'),
    'sums-1,3,4-log-limit': (0, '8ee696d8779e2d8bbc21e090890b639cfb5f6efa662bef4e88f4f41d1994e088'),
    'sums-2,2,5': (0, '5e8742a2bf1a862654eef7013e1def33952dbedb96c9a7c6b46801f59f3594e9'),
    'sums-2,2,5-limit': (0, 'dc1763264d648eb6526da7231f1591e66c8cd97ed35d445664c63e69cdc05592'),
    'sums-2,2,5-log': (0, '362d485cf2db9d4a283fc5c27d09545192d44d8fbee76da1bf1363ba61926110'),
    'sums-2,2,5-log-limit': (0, '217ed204e11f27503ba9699df54ea5aa1cf3b88ecc6fbf730114894e22adf407'),
    'sums-0,0,2': (0, 'd6b5251e761dcda5e813c837f853c3d08f0ed124bc2db23e22c42df854d7fb95'),
    'sums-0,0,2-limit': (0, 'bb6a31652616f437fa60192aa241555ad0e3986c002466e9b72999883b2b2bb4'),
    'sums-0,0,2-log': (0, 'e644f79a82281671ecd0a69695226c83c02da1dfe96283f1b2f14adfac766a97'),
    'sums-0,0,2-log-limit': (0, 'e0e58f9a867119f48cc8547e22b3b2a9e5dbd02ef11de1ad224f9ba2ef859763'),
    'sums-4,2,4': (0, 'f2b4d1e8ec251c7fe15c37ecc412f7ff7841113377ac20e75dc3e7638f85a1c0'),
    'sums-4,2,4-limit': (0, '8d9d30a49e2331b3dac7a04ead9eb0ace410a8b149106768e6240804e29a4a37'),
    'sums-4,2,4-log': (0, '77657a1add2ef8fadc77756877cf939b3e0d06af56532b1bf63f99238adb2d8e'),  # *
    'sums-4,2,4-log-limit': (0, '8d012fea0749412aed9850f41afb2a3ca8b921a118a889a526dcf7abfee8d1d5'),  # *
    'sums-6,4,4': (0, 'a28384fbfc97bf462e09247925a4ecfc42ef1e22081fd56027ca49e80bfded40'),  # *
    'sums-6,4,4-limit': (0, '2d2b493f7bd4a6f8157a09bdb77b8175d8a75a8615fca27c270d8cb3e744273c'),  # *
    'sums-6,4,4-log': (0, '7436ecd1f163b1adb6e996a01c734d0bff96344119b1c7db815d1d2c92871e4e'),  # *
    'sums-6,4,4-log-limit': (0, '54e17ce9fc7493d50e7196d9adee4d57c0010ff694e8eb13f9888b5f7eb7b3fc'),  # *
    'sums-4,4,6': (0, '833e41c677fd360f740fe2b3612f2d1830d5e8073f1d1070bf0abdacf29198c8'),
    'sums-4,4,6-limit': (0, 'dcd7ac22c6c91a5d9193997894fb69bffd8cceb16b07772675cb8f8f01ac25e4'),
    'sums-4,4,6-log': (0, 'f9bf2304c3bdf2bdc6e23ad511555d3869e75ff6d068b75508d46b53b3243321'),  # *
    'sums-4,4,6-log-limit': (0, 'b105c10388007dd5306fe252a45f1ce835d8d5be92fdba8329a18df056108ebc'),  # *
    'sums-6,2,6': (0, '3478514f1b55a50d158eedb4037571179b0d126600051bb7453eab3bc21422b7'),
    'sums-6,2,6-limit': (0, 'de84ec99effe8444dba8b1e75314735a125e6f7da27c8ffabbf044cff556bc8c'),
    'sums-6,2,6-log': (0, '1f36d192bd9850cff8fef85508a8a17006e7044273af6d1c12892ac9636f8e0a'),  # *
    'sums-6,2,6-log-limit': (0, 'f21faf052c92fc21aef1c8410b4f1d1a2d46c31c9cf5d3095b94ff364a054728'),  # *
}


def test_golden_alpha_sum_methods():
    from eisenmodes.homogeneous import zero_mode_alpha_sum

    seen = {}
    for key, norm, method in ALPHA_SUM_METHOD_GOLDEN:
        a, b, lam = key.split(",")
        params = Params(Fraction(a), Fraction(b), int(lam), Normalization(norm))
        seen[key, norm, method] = _digest(zero_mode_alpha_sum(params, method).to_json_obj())
    assert seen == ALPHA_SUM_METHOD_GOLDEN


def test_golden_zero_mode_and_sums_documents(capsys):
    cases = {}
    for a, b, lam in ZERO_MODE_FAMILIES:
        cases[f"solve-n0-{a},{b},{lam}"] = ["solve", "--alpha", a, "--beta", b, "--lambda", lam,
                                           "--n", "0", "--cutoff", "8"]
    for a, b, s in SUMS_POINTS:
        for log in ([], ["--log"]):
            for limit in ([], ["--limit", "100"]):
                name = f"sums-{a},{b},{s}" + "-log" * bool(log) + "-limit" * bool(limit)
                cases[name] = ["sums", "--a", str(a), "--b", str(b), "--s", str(s), *log, *limit]
    seen = {}
    for name, argv in cases.items():
        code, out = _run_cli(capsys, argv)
        seen[name] = (code, _sha(out))
    assert seen == ZERO_MODE_CLI_GOLDEN
