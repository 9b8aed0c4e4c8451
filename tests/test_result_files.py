"""Result files: the exact bytes of every table the package writes.

Sweeps, baselines, transfers and training logs all go through one writer,
so these pins cover the CSV (csv module, CRLF rows, floats by repr) and the
JSON (a list of objects at indent 1, then a newline) of each table shape.
"""

import numpy as np
import pytest

from vaecomm.curves import BlerCurve, BlerPoint, dataclass_table, write_table
from vaecomm.errors import ConfigError
from vaecomm.evaluation import TransferRecord
from vaecomm.training import EpochRecord, TrainingLog

WITH_ANALYTIC = BlerCurve([
    BlerPoint(5.0, np.float64(0.1) + np.float64(0.2), 1e-05, 0.25, 0.5, 1000, 10, 7, "qpsk_awgn",
              analytic_ber=0.012345678901234568),
    BlerPoint(5.5, 0.0, 0.0, 0.0, 0.003826, 1000, 10, 7, "qpsk_awgn", analytic_ber=1 / 3),
])
WITHOUT_ANALYTIC = BlerCurve([
    BlerPoint(-1.5, 1.0, 0.75, 0.9, 1.0, 64, 100, 0, "vae_k4n2m2_awgn"),
    BlerPoint(12.0, 2.5e-07, 3.125e-09, 1.1e-07, 5.6e-07, 64000, 100, 0, "vae_k4n2m2_awgn"),
])
TRANSFER = [
    TransferRecord(10, 0.0012, 0.001, 0.0014, 0.011, 0.009, 0.013, 4000, 3, "vae_k4n2m2_rayleigh"),
    TransferRecord(100, 1 / 7, 0.14, 0.145, 1.0, 0.999, 1.0, 4000, 3, "vae_k4n2m2_rayleigh"),
]
LOG = TrainingLog([
    EpochRecord(1, 2.7725887222397811, 2.5, 0.0625, 2.6, wall_time=12.5),
    EpochRecord(2, 0.30000000000000004, 1e-20, 123456.789, 0.1, wall_time=99.0),
])


def _write(table, path, fmt):
    if table == "transfer":
        write_table(path, fmt, *dataclass_table(TransferRecord, TRANSFER))
    elif table == "log":
        write_table(path, fmt, *LOG.table())
    else:
        curve = WITH_ANALYTIC if table == "with_analytic" else WITHOUT_ANALYTIC
        write_table(path, fmt, *curve.table())


def _csv(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


def _json(*objects):
    body = ",\n".join(
        " {\n" + ",\n".join(f"  {item}" for item in obj) + "\n }" for obj in objects)
    return f"[\n{body}\n]\n".encode()


GOLDEN_CSV = {
    "with_analytic": _csv(
        "ebno_db,bler,ser,ci_low,ci_high,blocks,block_length,seed,system_label,analytic_ber",
        "5.0,0.30000000000000004,1e-05,0.25,0.5,1000,10,7,qpsk_awgn,0.012345678901234568",
        "5.5,0.0,0.0,0.0,0.003826,1000,10,7,qpsk_awgn,0.3333333333333333",
    ),
    "without_analytic": _csv(
        "ebno_db,bler,ser,ci_low,ci_high,blocks,block_length,seed,system_label",
        "-1.5,1.0,0.75,0.9,1.0,64,100,0,vae_k4n2m2_awgn",
        "12.0,2.5e-07,3.125e-09,1.1e-07,5.6e-07,64000,100,0,vae_k4n2m2_awgn",
    ),
    "transfer": _csv(
        "block_length,ser,ser_ci_low,ser_ci_high,bler,bler_ci_low,bler_ci_high,blocks,seed,"
        "system_label",
        "10,0.0012,0.001,0.0014,0.011,0.009,0.013,4000,3,vae_k4n2m2_rayleigh",
        "100,0.14285714285714285,0.14,0.145,1.0,0.999,1.0,4000,3,vae_k4n2m2_rayleigh",
    ),
    "log": _csv(
        "epoch,train_loss,val_loss,kl,recon",
        "1,2.772588722239781,2.5,0.0625,2.6",
        "2,0.30000000000000004,1e-20,123456.789,0.1",
    ),
}

GOLDEN_JSON = {
    "with_analytic": _json(
        ('"ebno_db": 5.0', '"bler": 0.30000000000000004', '"ser": 1e-05', '"ci_low": 0.25',
         '"ci_high": 0.5', '"blocks": 1000', '"block_length": 10', '"seed": 7',
         '"system_label": "qpsk_awgn"', '"analytic_ber": 0.012345678901234568'),
        ('"ebno_db": 5.5', '"bler": 0.0', '"ser": 0.0', '"ci_low": 0.0',
         '"ci_high": 0.003826', '"blocks": 1000', '"block_length": 10', '"seed": 7',
         '"system_label": "qpsk_awgn"', '"analytic_ber": 0.3333333333333333'),
    ),
    "without_analytic": _json(
        ('"ebno_db": -1.5', '"bler": 1.0', '"ser": 0.75', '"ci_low": 0.9', '"ci_high": 1.0',
         '"blocks": 64', '"block_length": 100', '"seed": 0',
         '"system_label": "vae_k4n2m2_awgn"'),
        ('"ebno_db": 12.0', '"bler": 2.5e-07', '"ser": 3.125e-09', '"ci_low": 1.1e-07',
         '"ci_high": 5.6e-07', '"blocks": 64000', '"block_length": 100', '"seed": 0',
         '"system_label": "vae_k4n2m2_awgn"'),
    ),
    "transfer": _json(
        ('"block_length": 10', '"ser": 0.0012', '"ser_ci_low": 0.001', '"ser_ci_high": 0.0014',
         '"bler": 0.011', '"bler_ci_low": 0.009', '"bler_ci_high": 0.013', '"blocks": 4000',
         '"seed": 3', '"system_label": "vae_k4n2m2_rayleigh"'),
        ('"block_length": 100', '"ser": 0.14285714285714285', '"ser_ci_low": 0.14',
         '"ser_ci_high": 0.145', '"bler": 1.0', '"bler_ci_low": 0.999', '"bler_ci_high": 1.0',
         '"blocks": 4000', '"seed": 3', '"system_label": "vae_k4n2m2_rayleigh"'),
    ),
    "log": _json(
        ('"epoch": 1', '"train_loss": 2.772588722239781', '"val_loss": 2.5', '"kl": 0.0625',
         '"recon": 2.6'),
        ('"epoch": 2', '"train_loss": 0.30000000000000004', '"val_loss": 1e-20',
         '"kl": 123456.789', '"recon": 0.1'),
    ),
}


@pytest.mark.parametrize("table", sorted(GOLDEN_CSV))
def test_csv_bytes_are_pinned(tmp_path, table):
    path = tmp_path / f"{table}.csv"
    _write(table, str(path), "csv")
    assert path.read_bytes() == GOLDEN_CSV[table]


@pytest.mark.parametrize("table", sorted(GOLDEN_JSON))
def test_json_bytes_are_pinned(tmp_path, table):
    path = tmp_path / f"{table}.json"
    _write(table, str(path), "json")
    assert path.read_bytes() == GOLDEN_JSON[table]


def test_write_table_rejects_an_unknown_format_before_writing(tmp_path):
    path = tmp_path / "curve.xml"
    with pytest.raises(ConfigError, match="xml"):
        write_table(str(path), "xml", *WITHOUT_ANALYTIC.table())
    assert not path.exists()
