"""Golden reports: the exit code and the sha256 of stdout for one fast argv
per subcommand and mode, in CSV and in JSON.

A refactor that leaves every report byte-identical leaves these digests
alone.  A change that means to alter a report updates its digest here and
says why.
"""
import hashlib

import pytest

from freespec import cli

# (argv, sha256 of the CSV report, sha256 of the JSON report)
GOLDEN = [
    (
        "tree-check --d 3 --k 2 --max-m 6",
        "0c4f9c527ddd9a3384b56a6bf4cfdf017c0909820e2ebe011d2f891c17905451",
        "c510899b56c2e84bb82483b633c3e8277124b7b2d5f7a2aa01269e459ec2cad3",
    ),
    (   # even k*m
        "free-clt --graph builtin:k3 --k 2 --N 2,4 --max-m 4",
        "7f687755bff4f472687a4eee2cad4d36911ad1213f9669cad4aae73c0e34dd4f",
        "6671b0fffd1a39fdf47f602a948cc49f8709c810118c7737e6554421be88d654",
    ),
    (   # odd k*m
        "free-clt --graph builtin:p3 --k 3 --N 2 --max-m 3",
        "31d2f77a6ff250c9ab1d3a33e2751b73995197a4eba90c8729b470b939129252",
        "f9a434ea2863cdd988ff63d2e8fc32b70d77d269bc62e9894f67f66132d1d0d4",
    ),
    (   # a surd cell: sqrt(1/6) at m = 3
        "free-clt --graph builtin:k3 --k 1 --N 3 --max-m 3",
        "a0bd707f4b30d1202cf35b78743ee45a510dc91660b8feaedae3132f05e68edd",
        "41e1b1b84836254d1f82446269d589f6dcc1a86ba977c8151e54e60b0b9a0490",
    ),
    (   # N = 3 is skipped over its walk budget: N = 2 charges 109, N = 3 112
        "free-clt --graph builtin:c4 --k 2 --N 2,3 --max-m 4 --walk-budget 111",
        "d6a9e58a6d75cc23a962cad238a3726bd8da22e93b18dfd0d05a77b401419c6e",
        "aec12f809e018a05182050dc22062c4b3fb4f509ca4e3ae9a9752f5cf5fb255b",
    ),
    (   # eight-step layers
        "free-clt --graph builtin:k3 --k 2 --N 2,8 --max-m 8",
        "81db6fd3424a8ef781c9bd26f34fb24b9e3f877b1383bf5964a1f7d476b775ed",
        "c9c367d31b3dbd74d5484339bda292d2f46e0e7900ff84fe64b757950f8c4559",
    ),
    (   # k = 3 turns inside the copies of K4
        "free-clt --graph builtin:k4 --k 3 --N 2,7 --max-m 5",
        "39e1685b0de410d250a1b06b9ef1dc2746a83af78b4d655d30874129700f47ba",
        "ac8d838f9ecb6170e80700ba777add9b97d0d5ed8d6ad25b0c13f90408cdc12e",
    ),
    (   # k = 3 at N = 9, pinned from the copy-counting walk DP
        "free-clt --graph builtin:k3 --k 3 --N 9 --max-m 6",
        "309545a2e8649df1228c00c56e08c974b07f0957055c1ca92552825765c80330",
        "969ac32968bd27f9299f16d7cecec952617bead8f56ffd1c8fcaf9fde8226e3d",
    ),
    (   # the 3-regular tree at depth, pinned from the radial walk engine
        "tree-check --d 3 --k 2 --max-m 400",
        "b153cb06e86241cc6d57dab5165ca4e5f1d3a174a4b4bf435a6f2396da111243",
        "2e4fdbd845468e502278f5078cb3692b76aa16cf5bd3def13a743348a7041719",
    ),
    (
        "large-d --k 2 --d-list 3,4 --max-m 4",
        "65b6a5d897d8bc912b0f504334d12c151f06ee68e23258734ae183660621c4a8",
        "5713a604ad9abb910e97e26d5b62421c29fb345fd34fc1713d6951e62eb3beca",
    ),
    (
        "regular-random --d 3 --k 2 --n-list 20,40 --samples 3 --max-m 4 --seed 1",
        "e95ad23e478a80fb6ef4394061fcd54aa47fe6c5a4e9d637712318344745c6f3",
        "9c89801a170fd84c5e2e1d7870ecc48075b54cda0b2e8805117ab37697f743e1",
    ),
    (
        "cycles --d 3 --j 3 --n-list 20,40 --samples 5 --seed 1",
        "1d6e701da24ea0dd8afdf1ec9dd8fc60ac798ada4d0552e067632c83fc63e14a",
        "753e7de55d5238f20bdb28b4aad4e4fc151b0f1eae33d72dee1d42f7ef7e29ad",
    ),
    (
        "decomp-check --mode square --graph builtin:c5",
        "b0848c2e0185bc30b283d75b879e56b69fc0c58f7ca2bd342c16b4ef944bf895",
        "b606d138bde8ca0e50b629ed867dc746958c72ea51bb77544e3aee1569b54e07",
    ),
    (
        "decomp-check --mode tree --d 3 --k 2 --radius 5",
        "d22abd5e74bfe534e825543b6175453b46700ce1092cc2d4e0d3db2a56863057",
        "76688259152ec6ef1983573091cc4d29454fdda092e13b7e430dd83d94d72439",
    ),
    (
        "decomp-check --mode free --graph builtin:k3 --N 2 --k 3 --radius 5",
        "07f2d3d6eebca2825ded3313a0d711aa566b726fd0e29240fa632964da6582eb",
        "b212f1b993aea0f2f4abd28fa3378eda7475f6e8ea6221e2b6bb37135aab8ac0",
    ),
    (
        "moments --graph builtin:c4 --which vacuum --max-m 6",
        "1a34b1fe08f3c8d4b5bdcc515dbbeb00e8a7a3f3851497ba218a4e0dd92f3c29",
        "005a518dd642f31ac0c412c99d6e1b46f96a5dc392d759a33d6c084ebe0e6d1a",
    ),
    (
        "moments --graph builtin:p4 --which trace --max-m 6",
        "5442aa4e93b46766c764e04e7b3650fdb6ff5dd5fe2da3420d943354d2902dda",
        "58cde22f0f2d2b97ec68db33b6dbf64548d3c5c47501a16f85f22dec4b45653b",
    ),
    (
        "moments --law semicircle --max-m 8",
        "4156048fa72bef46d0fe6203df440746e5484fc94c4adf393c986a7bf05be21d",
        "09fdc3a9c0ede4f7924aede7451a2ac6ffba5fdaace5203790e25ea5d93df525",
    ),
    (
        "moments --law km:3 --max-m 8",
        "ca969fb43a2af5b9be6155cfd9044bbd92601af5e6e3e477ac10c4e715d20b79",
        "40ff7b93456e8ea72f638e5c5fc5375df02a0de64b09b2f0d7ae30890d90c6d3",
    ),
    (
        "km-density --d 3 --points 7 --range -3,3",
        "426c93e6f21c660ac1040c4d692f72e1bd128324424ebc113dd2086d24cb218f",
        "bca54ecdfb0d9a27259bf1c02599bd7337f27e6af836a56393c72d115820e937",
    ),
    (
        "hist --law semicircle --samples 200 --bins 5 --seed 3 --transform p:2",
        "41caba9ec2f4fcd9928d619b7fa962f68c7f4545d05e417be0a50836b2510475",
        "76b1082923ea0818fd0a17c89c705cbd973f8bb5eb74c8f33cbb5eb78f48bf46",
    ),
    (
        "hist --law km:3 --samples 200 --bins 5 --seed 3 --transform q:3:2",
        "47d10719bb4c0983db2f1d6ddbf4fe5f6b85058d5e391927161b1893c6fb28d4",
        "d961298cb8fe6fd7f6ffa94c8aba83897e25ff6c5fd9a3606cac47a612cbd103",
    ),
    (   # degree-5 Horner in floats; JSON prints the bin edges in full
        "hist --law semicircle --samples 200 --bins 5 --seed 3 --transform p:5",
        "6f86873921844d7914b31f75570fd531fc7fca94e96a8f1ad61d0feff9f33362",
        "f7461dc278a41e4178f173272e2a856cd1160bb2b3dfbe8268373ab2b9c208cf",
    ),
    (
        "hist --law km:4 --samples 200 --bins 5 --seed 3 --transform q:4:3",
        "89ef4652b825aeb4548505b5a699c36f29fc6468685e5e027da3270c3f63ac24",
        "7a300ae650610d6d5610b4740c475007316fd76a3db8557014360527b5eb0f7a",
    ),
    (   # a constant transform: every sample lands in the first bin
        "hist --law semicircle --samples 50 --bins 3 --transform p:0",
        "68ca8992db5b060dd190201949416ed745502324a852a3796f2a761a45b32dd5",
        "cfc2ce836f6a811816152cdb1c4fde42a6d231dd41808058ae3886d241a53ff5",
    ),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, csv_digest, json_digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_is_golden(capsys, argv, csv_digest, json_digest, fmt):
    code = cli.main([*argv.split(), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == (csv_digest if fmt == "csv" else json_digest)
