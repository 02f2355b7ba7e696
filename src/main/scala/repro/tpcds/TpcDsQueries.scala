package repro.tpcds

/** The 20-query TPC-DS-lite suite used by the §7 benches.
  *
  * Each query records whether "Hive v1.2" could run it — the paper reports
  * only 50 of 99 TPC-DS queries ran on v1.2 because it lacked EXCEPT /
  * INTERSECT, correlated scalar subqueries with non-equi conditions,
  * interval notation, and ORDER BY on unselected columns. Queries below
  * exercising those features are marked `supportedInV12 = false`.
  *
  * `sharedWorkQuery` marks the q88-style query (many identical
  * subexpressions) used to isolate the shared-work optimizer's effect.
  */
final case class DsQuery(
    id: String,
    sql: String,
    supportedInV12: Boolean = true,
    sharedWorkQuery: Boolean = false)

object TpcDsQueries {

  /** q88-flavoured: the same filtered count computed over 4 time buckets —
    * the showcase for the shared work optimizer (2.7x in the paper). */
  private val q88Like: String = {
    // real q88 computes 8 bucket counts over the same expensive join; the
    // buckets differ only in the final range condition, so the join +
    // per-quantity aggregation is one shared subexpression repeated 8 times
    val inner =
      """(SELECT ss_quantity AS q, COUNT(*) AS cnt FROM store_sales, store
        |  WHERE ss_store_sk = s_store_sk AND s_state = 'CA'
        |  GROUP BY ss_quantity)""".stripMargin
    def bucket(lo: Int, hi: Int) =
      s"(SELECT SUM(cnt) AS cnt FROM $inner WHERE q >= $lo AND q <= $hi)"
    val buckets = (0 until 8).map(i => bucket(i * 12 + 1, i * 12 + 12))
    val aliases = (1 to 8).map(i => s"t$i")
    s"""SELECT ${aliases.zipWithIndex.map { case (a, i) => s"$a.cnt AS c${i + 1}" }.mkString(", ")}
       |FROM ${buckets.zip(aliases).map { case (b, a) => s"$b $a" }.mkString(",\n     ")}""".stripMargin
  }

  val all: Seq[DsQuery] = Seq(
    DsQuery("q03",
      """SELECT d_year, i_brand, SUM(ss_sales_price) AS sum_agg
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Electronics' AND d_moy = 11
        |GROUP BY d_year, i_brand ORDER BY d_year, sum_agg DESC LIMIT 100""".stripMargin),
    DsQuery("q07",
      """SELECT i_category, AVG(ss_quantity) AS agg1, AVG(ss_sales_price) AS agg2
        |FROM store_sales, customer, item
        |WHERE ss_customer_sk = c_customer_sk AND ss_item_sk = i_item_sk
        |AND c_country = 'US'
        |GROUP BY i_category ORDER BY i_category LIMIT 100""".stripMargin),
    DsQuery("q12",
      """SELECT i_category, SUM(ss_sales_price) AS itemrevenue
        |FROM store_sales, item, date_dim
        |WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
        |AND d_year = 2016 AND i_category IN ('Sports','Books','Home')
        |GROUP BY i_category ORDER BY itemrevenue DESC""".stripMargin),
    DsQuery("q15",
      """SELECT c_country, SUM(ss_sales_price) AS total
        |FROM store_sales, customer, date_dim
        |WHERE ss_customer_sk = c_customer_sk AND ss_sold_date_sk = d_date_sk
        |AND d_year = 2017 GROUP BY c_country ORDER BY c_country""".stripMargin),
    DsQuery("q19",
      """SELECT i_brand, SUM(ss_sales_price) AS ext_price
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Jewelry' AND d_moy = 12
        |GROUP BY i_brand ORDER BY ext_price DESC LIMIT 100""".stripMargin),
    DsQuery("q25",
      """SELECT i_category, s_state, SUM(ss_sales_price) AS sales,
        |SUM(sr_return_amt) AS returns_amt
        |FROM store_sales, store_returns, item, store
        |WHERE ss_item_sk = sr_item_sk AND ss_ticket_number = sr_ticket_number
        |AND ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk
        |GROUP BY i_category, s_state ORDER BY i_category, s_state""".stripMargin),
    DsQuery("q42",
      """SELECT d_year, i_category, SUM(ss_sales_price) AS total_sales
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_moy = 11
        |GROUP BY d_year, i_category ORDER BY total_sales DESC LIMIT 100""".stripMargin),
    DsQuery("q43",
      """SELECT s_state, d_dow, SUM(ss_sales_price) AS sales
        |FROM store_sales, date_dim, store
        |WHERE ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk
        |AND d_year = 2018 GROUP BY s_state, d_dow ORDER BY s_state, d_dow""".stripMargin),
    DsQuery("q52",
      """SELECT d_year, i_brand, SUM(ss_sales_price) AS ext_price
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Music' AND d_moy = 12
        |GROUP BY d_year, i_brand ORDER BY d_year, ext_price DESC LIMIT 100""".stripMargin),
    DsQuery("q55",
      """SELECT i_brand, SUM(ss_sales_price) AS ext_price
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND d_moy = 11 AND d_year = 2017
        |GROUP BY i_brand ORDER BY ext_price DESC LIMIT 100""".stripMargin),
    DsQuery("q59",
      """SELECT s_state, d_year, SUM(ss_sales_price) AS sales
        |FROM store_sales, date_dim, store
        |WHERE ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk
        |GROUP BY s_state, d_year ORDER BY s_state, d_year""".stripMargin),
    DsQuery("q65",
      """SELECT s_state, i_brand, SUM(ss_sales_price) AS revenue
        |FROM store_sales, item, store
        |WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk
        |AND i_category = 'Shoes'
        |GROUP BY s_state, i_brand ORDER BY s_state, revenue LIMIT 100""".stripMargin),
    DsQuery("q68",
      """SELECT c_country, SUM(ss_quantity) AS qty
        |FROM store_sales, customer, date_dim
        |WHERE ss_customer_sk = c_customer_sk AND ss_sold_date_sk = d_date_sk
        |AND d_dow IN (6, 7) GROUP BY c_country ORDER BY qty DESC""".stripMargin),
    DsQuery("q79",
      """SELECT s_state, AVG(ss_sales_price) AS avg_price
        |FROM store_sales, store, date_dim
        |WHERE ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
        |AND d_dow = 1 GROUP BY s_state ORDER BY s_state""".stripMargin),
    DsQuery("q88", q88Like, sharedWorkQuery = true),
    DsQuery("q96",
      """SELECT COUNT(*) AS cnt FROM store_sales, store, date_dim
        |WHERE ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
        |AND s_state = 'TX' AND d_moy = 6""".stripMargin),
    // ---- features Hive v1.2 lacked: these 4 only run on "v3.1" ----
    DsQuery("q14i",
      """SELECT i_item_sk FROM item WHERE i_category = 'Sports'
        |INTERSECT
        |SELECT ss_item_sk AS i_item_sk FROM store_sales WHERE ss_quantity > 90
        |""".stripMargin,
      supportedInV12 = false),
    DsQuery("q87e",
      """SELECT c_customer_sk FROM customer WHERE c_country = 'US'
        |EXCEPT
        |SELECT ss_customer_sk AS c_customer_sk FROM store_sales WHERE ss_quantity > 95
        |""".stripMargin,
      supportedInV12 = false),
    DsQuery("q92c",
      """SELECT SUM(ss_sales_price) AS excess
        |FROM store_sales ss1
        |WHERE ss_sales_price > (SELECT AVG(ss_sales_price) * 1.2 FROM store_sales ss2
        |                        WHERE ss2.ss_item_sk = ss1.ss_item_sk)""".stripMargin,
      supportedInV12 = false),
    DsQuery("q36o",
      """SELECT i_category FROM store_sales, item
        |WHERE ss_item_sk = i_item_sk AND ss_quantity > 98
        |GROUP BY i_category ORDER BY SUM(ss_sales_price) DESC LIMIT 10""".stripMargin,
      supportedInV12 = false), // ORDER BY on an unselected aggregate
  )

  def v12Supported: Seq[DsQuery] = all.filter(_.supportedInV12)
}
