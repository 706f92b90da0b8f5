"""Bad: set iteration order shapes a rendered table (RPR103 x3)."""


def column_names(rows):
    return [name for name in {key for row in rows for key in row}]


def render(labels):
    out = []
    for label in set(labels):
        out.append(label)
    return out


def legend(labels):
    return list(set(labels))
