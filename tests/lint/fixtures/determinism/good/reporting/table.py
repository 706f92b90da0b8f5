"""Good: sets are sorted before they shape the table."""


def column_names(rows):
    return sorted({key for row in rows for key in row})


def render(labels):
    return [label for label in sorted(set(labels))]
