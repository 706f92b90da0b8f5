"""Query-core sink module: rng taint arrives two hops away."""

from badpkg.dbms.batch import digest_rows


def refine(rows):
    # RPR101: refine -> digest_rows -> jitter.
    return digest_rows(rows)
