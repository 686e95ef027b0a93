"""A fixed amount of stdlib-only Python work; prints the seconds it took.

    python3 perfbench/calibrate.py

The benchmark runs this in a fresh interpreter after every operation, as it
does the set-up probe. It imports nothing from rainlink, so its time
changes only with the speed the host is giving the benchmark at that moment.
The mix follows what the CLI spends its time on: module imports, float and
timestamp parsing, float formatting, dict and list building, and sorting.
"""

import time

start = time.perf_counter()

import csv  # noqa: E402
import datetime  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

base = datetime.datetime(2018, 1, 1, tzinfo=datetime.timezone.utc)
rows = []
for i in range(3000):
    stamp = (base + datetime.timedelta(minutes=30 * i)).isoformat()
    rate = float(repr(i * 0.37 % 41.0))
    rows.append((datetime.datetime.fromisoformat(stamp), rate))
text = io.StringIO()
csv.writer(text).writerows((ts.isoformat(), repr(r)) for ts, r in rows)
parsed = [float(r) for _, r in csv.reader(io.StringIO(text.getvalue()))]
records = [{"p": r, "a": r ** 0.5, "closes": r > 20.0} for r in sorted(parsed)]
json.loads(json.dumps(records))

print(repr(time.perf_counter() - start))
