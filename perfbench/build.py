"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (`src/main/scala`) and the benchmark's own sources
(`perfbench/src`) are compiled together with the Scala compiler that ships in
Spark's jar directory, into `<build dir>/perfbench/classes`. No sbt and no
dependency resolution is involved, so the build reads only the checkout and
the Spark/JDK installation, and writes only under the build directory.

A stamp (hash of every source file) skips the compile when nothing changed.

    python3 perfbench/build.py            # build, print the classpath
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")


class BuildError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def spark_jars():
    """Spark's jars: under $SPARK_HOME, else beside the `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = sorted(glob.glob(os.path.join(home or "", "jars", "*.jar")))
    if not jars:
        raise BuildError(f"no Spark jars found (SPARK_HOME={home}); set SPARK_HOME")
    return jars


def _sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise BuildError(f"program sources not found: {PROGRAM_SRC}")
    files = sorted(glob.glob(os.path.join(PROGRAM_SRC, "**", "*.scala"), recursive=True))
    files += sorted(glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    if not any(f.startswith(PROGRAM_SRC) for f in files):
        raise BuildError(f"no Scala sources under {PROGRAM_SRC}")
    return files


def _stamp(files, jars):
    h = hashlib.sha256()
    for j in jars:
        h.update(os.path.basename(j).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def source_id():
    """Short hash of the sources of the last build."""
    with open(os.path.join(build_dir(), "perfbench", "stamp")) as fh:
        return fh.read()[:12]


def build():
    """Compile if needed; return the runtime classpath as a list of entries."""
    jars = spark_jars()
    files = _sources()
    out = os.path.join(build_dir(), "perfbench")
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "stamp")
    stamp = _stamp(files, jars)
    cp = [classes] + jars
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return cp

    compiler = [j for j in jars if os.path.basename(j).startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("scala-compiler/library/reflect jars missing from the Spark jar directory")
    if os.path.isdir(classes):
        for f in glob.glob(os.path.join(classes, "**", "*"), recursive=True)[::-1]:
            os.rmdir(f) if os.path.isdir(f) else os.remove(f)
    os.makedirs(classes, exist_ok=True)
    args_file = os.path.join(out, "scalac.args")
    with open(args_file, "w") as fh:
        fh.write("\n".join(["-d", classes, "-classpath", ":".join(jars)] + files) + "\n")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={tmp}", "-cp", ":".join(compiler),
           "scala.tools.nsc.Main", "@" + args_file]
    print(f"[perfbench] compiling {len(files)} Scala files ...", file=sys.stderr, flush=True)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BuildError(f"scalac failed with exit code {r.returncode}")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


if __name__ == "__main__":
    try:
        print(":".join(build()))
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
