package perfbench

import java.io.File
import java.sql.DriverManager

import org.apache.spark.sql.DataFrame

/** Reference answers by a path that bypasses every layer under test: the
  * generated tables are written as plain Parquet and the queries run in
  * DuckDB, the engine `repro.Oracle` checks rewrites against. */
object Reference {

  /** Writes `tables` under `dir` and answers `queries` (id -> SQL). */
  def answers(tables: Map[String, DataFrame], dir: File, queries: Seq[(String, String)]): Map[String, Answers.Canon] = {
    val threads = Runtime.getRuntime.availableProcessors()
    Bench.parallel(tables.toSeq, threads) { case (name, df) =>
      df.write.mode("overwrite").parquet(new File(dir, name).getAbsolutePath)
    }
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      tables.keys.foreach { name =>
        val files = new File(new File(dir, name), "*.parquet").getAbsolutePath
        conn.createStatement.execute(s"""CREATE VIEW "$name" AS SELECT * FROM read_parquet('$files')""")
      }
      queries.map { case (id, sql) =>
        val rs = conn.createStatement.executeQuery(sql)
        val n = rs.getMetaData.getColumnCount
        val rows = Iterator.continually(rs).takeWhile(_.next())
          .map(r => org.apache.spark.sql.Row.fromSeq((1 to n).map(r.getObject))).toSeq
        id -> Answers.canon(rows)
      }.toMap
    } finally conn.close()
  }
}
