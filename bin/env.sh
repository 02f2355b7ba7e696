# Offline sbt and Spark test settings of the Tier-1 verify command in
# ROADMAP.md, sourced by bin/tier1.sh and bin/paperbench.sh: sbt resolves
# offline with the repository config in $HOME/.sbt; the forked test JVM gets
# the CPU count, a Spark heap of half the RAM (2g to 8g) and a local dir.
export COURSIER_MODE=offline SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g}"
export SPARK_GRAFT_CPUS="$(env -u OMP_NUM_THREADS nproc)" SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)" SPARK_LOCAL_DIRS=/tmp/spark-local
