"""The downgrade outcome matrix: both attacks against every combination
of client patch and export suites. A test helper, not part of votesim.
"""

from dataclasses import dataclass, replace
from random import Random

from votesim.minitls import (
    EXPORT_BITS,
    NONCE_LEN,
    CipherSuite,
    ClientTlsConfig,
    RsaKey,
    TlsError,
    TlsServer,
    dlog_precompute,
    factor_export_modulus,
    gen_export_dhe_params,
    make_server_config,
    mitm_freak,
    mitm_logjam,
    signature_oracle,
)


@dataclass(frozen=True)
class MatrixCell:
    client_patched: bool
    export_rsa_enabled: bool
    export_dhe_enabled: bool
    freak_succeeded: bool
    logjam_succeeded: bool


def run_downgrade_matrix(rng: Random) -> list[MatrixCell]:
    """Exhaustive sweep of patched x export-RSA x export-DHE. The export-RSA
    flaw needs an unpatched client AND the export suite enabled; the
    export-DHE flaw needs only the export suite, any client.
    """
    cells = []
    export_dhe_params = gen_export_dhe_params(EXPORT_BITS, rng)
    table = dlog_precompute(export_dhe_params)
    for patched in (False, True):
        for export_rsa in (False, True):
            for export_dhe in (False, True):
                suites = {CipherSuite.RSA, CipherSuite.DHE}
                if export_rsa:
                    suites.add(CipherSuite.RSA_EXPORT)
                if export_dhe:
                    suites.add(CipherSuite.DHE_EXPORT)
                cfg = make_server_config(frozenset(suites), rng)
                if export_dhe:
                    cfg = replace(cfg, export_dhe_params=export_dhe_params)
                server = TlsServer(cfg)

                # export-RSA attack: oracle connection, factor pinned key
                freak_ok = False
                oracle = server.connect(0)
                client_cfg = ClientTlsConfig(offered_suites=(CipherSuite.RSA, CipherSuite.DHE),
                                             patched=patched)
                try:
                    # a server without export RSA fails here with NoCommonSuite
                    _, probe = signature_oracle(oracle, b"\x00" * NONCE_LEN, rng)
                    fp, fq = factor_export_modulus(probe.params[0], rng)
                    factored = RsaKey.from_primes(fp, fq, probe.params[1])
                    result = mitm_freak(client_cfg, oracle, factored, rng)
                    freak_ok = result.success and \
                        result.attacker_session_key == result.client_session_key
                except TlsError:
                    freak_ok = False

                # export-DHE attack against a fresh connection
                logjam_ok = False
                conn = server.connect(0)
                try:
                    result = mitm_logjam(client_cfg, conn, table, rng)
                    logjam_ok = result.success and \
                        result.attacker_session_key == result.client_session_key == \
                        result.server_session_key
                except TlsError:
                    logjam_ok = False

                cells.append(MatrixCell(
                    client_patched=patched,
                    export_rsa_enabled=export_rsa,
                    export_dhe_enabled=export_dhe,
                    freak_succeeded=freak_ok,
                    logjam_succeeded=logjam_ok,
                ))
    return cells
