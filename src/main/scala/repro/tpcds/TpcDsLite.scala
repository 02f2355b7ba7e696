package repro.tpcds

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic TPC-DS-lite star schema (§7.1's workload, scaled down).
  *
  * The paper evaluates on 10TB TPC-DS; we generate a deterministic
  * arithmetic analogue at SF=0.01 (tests) / SF=0.1 (benches): a
  * `store_sales` fact (600k rows/SF, partitionable by `ss_sold_date_sk`),
  * a `store_returns` fact sampled from sales (so join keys correlate),
  * and `date_dim` / `item` / `customer` / `store` dimensions. Values are
  * id-derived (no rand) so DuckDB sees byte-identical inputs.
  */
object TpcDsLite {

  private def n(base: Long, sf: Double): Long = math.max(100L, (base * sf).toLong)

  def storeSales(spark: SparkSession, sf: Double): DataFrame = {
    val items = n(18000, sf); val custs = n(100000, sf)
    spark.range(0, n(600000, sf)).select(
      (col("id") % 1461 + 1).as("ss_sold_date_sk"),
      (col("id") % items + 1).as("ss_item_sk"),
      ((col("id") * 17) % custs + 1).as("ss_customer_sk"),
      (col("id") % 10 + 1).as("ss_store_sk"),
      (col("id") / 4 + 1).as("ss_ticket_number"),
      (col("id") % 99 + 1).cast("int").as("ss_quantity"),
      round((col("id") % 20000) / 100.0 + 1.0, 2).as("ss_sales_price"),
    )
  }

  /** ~12% of tickets return; keys derived from the sales formulas so the
    * (sr_item_sk, sr_ticket_number) pairs really exist in store_sales. */
  def storeReturns(spark: SparkSession, sf: Double): DataFrame = {
    val items = n(18000, sf)
    spark.range(0, n(600000, sf)).filter(col("id") % 8 === 0).select(
      (col("id") % items + 1).as("sr_item_sk"),
      (col("id") / 4 + 1).as("sr_ticket_number"),
      round((col("id") % 5000) / 100.0, 2).as("sr_return_amt"),
    )
  }

  def dateDim(spark: SparkSession): DataFrame =
    spark.range(1, 1462).select(
      col("id").as("d_date_sk"),
      (lit(2015) + ((col("id") - 1) / 365).cast("int")).as("d_year"),
      ((((col("id") - 1) / 30) % 12) + 1).cast("int").as("d_moy"),
      (((col("id") - 1) % 30) + 1).cast("int").as("d_dom"),
      (((col("id") - 1) % 7) + 1).cast("int").as("d_dow"),
    )

  def item(spark: SparkSession, sf: Double): DataFrame =
    spark.range(1, n(18000, sf) + 1).select(
      col("id").as("i_item_sk"),
      element_at(array(
        lit("Sports"), lit("Books"), lit("Home"), lit("Music"), lit("Shoes"),
        lit("Men"), lit("Women"), lit("Children"), lit("Jewelry"), lit("Electronics")),
        (col("id") % 10 + 1).cast("int")).as("i_category"),
      concat(lit("Brand#"), (col("id") % 50 + 1).cast("string")).as("i_brand"),
      round((col("id") % 100) + 0.99, 2).as("i_current_price"),
    )

  def customer(spark: SparkSession, sf: Double): DataFrame =
    spark.range(1, n(100000, sf) + 1).select(
      col("id").as("c_customer_sk"),
      (lit(1940) + (col("id") % 60).cast("int")).as("c_birth_year"),
      element_at(array(lit("US"), lit("DE"), lit("FR"), lit("JP"), lit("BR")),
        (col("id") % 5 + 1).cast("int")).as("c_country"),
    )

  def store(spark: SparkSession): DataFrame =
    spark.range(1, 11).select(
      col("id").as("s_store_sk"),
      element_at(array(lit("CA"), lit("TX"), lit("NY"), lit("WA"), lit("IL")),
        (col("id") % 5 + 1).cast("int")).as("s_state"),
    )

  def all(spark: SparkSession, sf: Double): Map[String, DataFrame] = Map(
    "store_sales" -> storeSales(spark, sf),
    "store_returns" -> storeReturns(spark, sf),
    "date_dim" -> dateDim(spark),
    "item" -> item(spark, sf),
    "customer" -> customer(spark, sf),
    "store" -> store(spark),
  )

  /** Registers every table as a temp view. */
  def registerViews(spark: SparkSession, sf: Double): Unit =
    all(spark, sf).foreach { case (name, df) => df.createOrReplaceTempView(name) }
}
